// The PubSub facade and its RAII subscription handles: publish/dispatch
// semantics, the Status/Result error channel, and — the lifetime matrix —
// moved-from handles, double release, handles outliving the PubSub (a
// detectable error, never UB), and automatic pruning-state release on
// handle drop under 1 and 8 shards. Also the per-shard trace spans of a
// publish whose shards match in parallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dbsp/dbsp.hpp"

namespace dbsp {
namespace {

Schema market_schema() {
  Schema s;
  s.add_attribute("sym", ValueType::String);
  s.add_attribute("price", ValueType::Double);
  s.add_attribute("volume", ValueType::Int);
  return s;
}

Event tick(const PubSub& pubsub, const char* sym, double price,
           std::int64_t volume) {
  return pubsub.event()
      .with("sym", sym)
      .with("price", price)
      .with("volume", volume)
      .build();
}

TEST(PubSubTest, SubscribePublishDispatchesCallbacksInIdOrder) {
  PubSub pubsub(market_schema());
  std::vector<std::pair<std::uint32_t, std::uint64_t>> log;
  const auto record = [&log](const Notification& n) {
    log.emplace_back(n.subscription.value(), n.seq);
  };

  auto acme = pubsub.subscribe(where("sym").eq("ACME"), record).value();
  auto cheap = pubsub.subscribe("price < 50", record).value();
  auto silent = pubsub.subscribe(where("volume").gt(0)).value();  // no callback
  EXPECT_EQ(pubsub.subscription_count(), 3u);
  EXPECT_NE(acme.id(), cheap.id());

  EXPECT_EQ(pubsub.publish(tick(pubsub, "ACME", 10.0, 100)), 3u);
  ASSERT_EQ(log.size(), 2u);  // the silent subscription matched but had no callback
  EXPECT_EQ(log[0].first, acme.id().value());
  EXPECT_EQ(log[1].first, cheap.id().value());
  EXPECT_EQ(log[0].second, log[1].second);

  log.clear();
  EXPECT_EQ(pubsub.publish(tick(pubsub, "INIT", 80.0, 5)), 1u);  // silent only
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(pubsub.notifications_delivered(), 4u);
}

TEST(PubSubTest, PublishBatchMatchesSingleEventDispatch) {
  PubSub pubsub(market_schema());
  std::vector<std::uint64_t> seqs;
  auto h = pubsub.subscribe(where("price").ge(100),
                            [&seqs](const Notification& n) { seqs.push_back(n.seq); })
               .value();
  const std::vector<Event> events = {
      tick(pubsub, "A", 150.0, 1), tick(pubsub, "B", 50.0, 2),
      tick(pubsub, "C", 100.0, 3)};
  EXPECT_EQ(pubsub.publish_batch(events), 2u);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0] + 2, seqs[1]);  // events 0 and 2 of the batch
}

TEST(PubSubTest, ErrorChannelInsteadOfThrows) {
  PubSub pubsub(market_schema());

  const auto bad_filter = pubsub.subscribe(where("missing").eq(1));
  ASSERT_FALSE(bad_filter.ok());
  EXPECT_EQ(bad_filter.status().code(), ErrorCode::kNotFound);

  const auto bad_dsl = pubsub.subscribe("price <");
  ASSERT_FALSE(bad_dsl.ok());
  EXPECT_EQ(bad_dsl.status().code(), ErrorCode::kParseError);

  const auto null_tree = pubsub.subscribe(std::unique_ptr<Node>());
  ASSERT_FALSE(null_tree.ok());
  EXPECT_EQ(null_tree.status().code(), ErrorCode::kInvalidArgument);

  EXPECT_EQ(pubsub.unsubscribe(SubscriptionId(42)).code(), ErrorCode::kNotFound);
  EXPECT_EQ(pubsub.matches(SubscriptionId(42), tick(pubsub, "A", 1, 1)).status().code(),
            ErrorCode::kNotFound);

  // Pruning controls without pruning enabled.
  EXPECT_EQ(pubsub.prune(1).status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pubsub.train({}).code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(pubsub.drift_pending());
  EXPECT_FALSE(pubsub.pruning_stats().enabled);

  // Failed subscribes must not leak engine state or burn ids.
  const auto good = pubsub.subscribe(where("price").gt(0));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(pubsub.subscription_count(), 1u);
}

TEST(PubSubTest, OracleAndTextAccessors) {
  PubSub pubsub(market_schema());
  auto h = pubsub.subscribe(where("sym").eq("ACME") && where("price").lt(20)).value();
  EXPECT_TRUE(pubsub.matches(h.id(), tick(pubsub, "ACME", 10, 1)).value());
  EXPECT_FALSE(pubsub.matches(h.id(), tick(pubsub, "ACME", 30, 1)).value());
  const std::string text = pubsub.subscription_text(h.id()).value();
  // The stored tree round-trips through the DSL.
  EXPECT_NO_THROW((void)parse_subscription(text, pubsub.schema()));
}

// --- Handle lifetimes --------------------------------------------------------

TEST(SubscriptionHandleTest, DropUnsubscribes) {
  PubSub pubsub(market_schema());
  {
    auto h = pubsub.subscribe(where("price").gt(1)).value();
    EXPECT_TRUE(h.active());
    EXPECT_TRUE(pubsub.contains(h.id()));
    EXPECT_EQ(pubsub.subscription_count(), 1u);
  }
  EXPECT_EQ(pubsub.subscription_count(), 0u);
  EXPECT_EQ(pubsub.publish(tick(pubsub, "A", 10, 1)), 0u);
}

TEST(SubscriptionHandleTest, MovePreservesTheClaim) {
  PubSub pubsub(market_schema());
  auto h = pubsub.subscribe(where("price").gt(1)).value();
  const SubscriptionId id = h.id();

  SubscriptionHandle moved(std::move(h));
  EXPECT_FALSE(h.attached());  // NOLINT(bugprone-use-after-move) — tested on purpose
  EXPECT_FALSE(h.active());
  EXPECT_EQ(h.id(), SubscriptionId());
  EXPECT_TRUE(moved.active());
  EXPECT_EQ(moved.id(), id);
  EXPECT_EQ(pubsub.subscription_count(), 1u);

  // Releasing through the moved-from handle is a detectable error...
  const Status stale = h.release();
  EXPECT_EQ(stale.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pubsub.subscription_count(), 1u);

  // ...and move-assignment releases the destination's previous claim.
  auto other = pubsub.subscribe(where("volume").gt(0)).value();
  EXPECT_EQ(pubsub.subscription_count(), 2u);
  other = std::move(moved);
  EXPECT_EQ(pubsub.subscription_count(), 1u);
  EXPECT_EQ(other.id(), id);
  EXPECT_TRUE(pubsub.contains(id));
}

TEST(SubscriptionHandleTest, DoubleReleaseIsAnErrorNotUb) {
  PubSub pubsub(market_schema());
  auto h = pubsub.subscribe(where("price").gt(1)).value();
  EXPECT_TRUE(h.release().ok());
  EXPECT_FALSE(h.attached());
  EXPECT_EQ(pubsub.subscription_count(), 0u);

  const Status again = h.release();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), ErrorCode::kFailedPrecondition);
}

TEST(SubscriptionHandleTest, ReleaseAfterExternalUnsubscribeReportsNotFound) {
  PubSub pubsub(market_schema());
  auto h = pubsub.subscribe(where("price").gt(1)).value();
  EXPECT_TRUE(pubsub.unsubscribe(h.id()).ok());
  EXPECT_FALSE(h.active());
  EXPECT_TRUE(h.attached());  // the claim itself was never released
  EXPECT_EQ(h.release().code(), ErrorCode::kNotFound);
}

TEST(SubscriptionHandleTest, HandleOutlivingPubSubIsDetectableNotUb) {
  auto pubsub = std::make_unique<PubSub>(market_schema());
  auto kept = pubsub->subscribe(where("price").gt(1)).value();
  auto dropped = pubsub->subscribe(where("volume").gt(1)).value();

  pubsub.reset();  // the facade dies first

  EXPECT_FALSE(kept.active());
  EXPECT_TRUE(kept.attached());
  const Status released = kept.release();
  EXPECT_FALSE(released.ok());
  EXPECT_EQ(released.code(), ErrorCode::kUnavailable);
  // `dropped` is destroyed after the PubSub — its destructor must be a
  // safe no-op (ASan verifies no use-after-free here).
}

TEST(SubscriptionHandleTest, EmptyHandleIsInert) {
  SubscriptionHandle h;
  EXPECT_FALSE(h.attached());
  EXPECT_FALSE(h.active());
  EXPECT_EQ(h.release().code(), ErrorCode::kFailedPrecondition);
}

// --- Pruning auto-release ----------------------------------------------------

class PubSubPruningTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PubSubPruningTest, HandleDropReleasesPruningState) {
  PubSubOptions options;
  options.engine.shards = GetParam();
  options.pruning = true;
  options.prune.dimension = PruneDimension::MemoryUsage;
  PubSub pubsub(market_schema(), options);
  EXPECT_EQ(pubsub.shard_count(), GetParam());

  // A small training sample so candidate scores are non-degenerate.
  std::vector<Event> sample;
  for (int i = 0; i < 64; ++i) {
    sample.push_back(tick(pubsub, i % 2 == 0 ? "ACME" : "INIT",
                          static_cast<double>(i), i));
  }
  ASSERT_TRUE(pubsub.train(sample).ok());

  std::vector<SubscriptionHandle> handles;
  for (int i = 0; i < 40; ++i) {
    const double lo = static_cast<double>(i);
    handles.push_back(pubsub
                          .subscribe(where("sym").eq(i % 2 == 0 ? "ACME" : "INIT") &&
                                     where("price").between(lo, lo + 10) &&
                                     where("volume").ge(i))
                          .value());
  }
  auto stats = pubsub.pruning_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.tracked, 40u);
  EXPECT_EQ(stats.maintenance.admissions, 40u);
  EXPECT_GT(stats.total_possible, 0u);

  // Prune, then churn out half the population through handle drops: the
  // pruning queues must release automatically (capacity rolls back) and
  // the engine must forget the subscriptions.
  ASSERT_TRUE(pubsub.prune_to_fraction(0.5).ok());
  const std::size_t possible_before = pubsub.pruning_stats().total_possible;
  for (int i = 0; i < 20; ++i) handles.erase(handles.begin());
  stats = pubsub.pruning_stats();
  EXPECT_EQ(stats.tracked, 20u);
  EXPECT_EQ(stats.maintenance.releases, 20u);
  EXPECT_LT(stats.total_possible, possible_before);
  EXPECT_EQ(pubsub.subscription_count(), 20u);

  // The engine still agrees with direct tree evaluation of every live
  // subscription after prune + churn (both sides see the pruned trees).
  for (int e = 0; e < 32; ++e) {
    const Event event = tick(pubsub, e % 2 == 0 ? "ACME" : "INIT",
                             static_cast<double>(e), e);
    std::size_t oracle = 0;
    for (const auto& h : handles) {
      oracle += pubsub.matches(h.id(), event).value() ? 1u : 0u;
    }
    EXPECT_EQ(pubsub.publish(event), oracle);
  }

  // Dropping everything empties engine and queues.
  handles.clear();
  EXPECT_EQ(pubsub.subscription_count(), 0u);
  EXPECT_EQ(pubsub.pruning_stats().tracked, 0u);
  EXPECT_EQ(pubsub.pruning_stats().total_possible, 0u);
}

TEST_P(PubSubPruningTest, SetPruneDimensionRebuildsOverCurrentTrees) {
  PubSubOptions options;
  options.engine.shards = GetParam();
  options.pruning = true;
  PubSub pubsub(market_schema(), options);
  std::vector<SubscriptionHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(pubsub
                          .subscribe(where("price").gt(i) &&
                                     where("volume").lt(100 + i))
                          .value());
  }
  ASSERT_TRUE(pubsub.prune(3).ok());
  ASSERT_TRUE(pubsub.set_prune_dimension(PruneDimension::Throughput).ok());
  auto stats = pubsub.pruning_stats();
  EXPECT_EQ(stats.tracked, 10u);
  EXPECT_EQ(stats.performed, 0u);  // baselines re-captured from current state
  // Queues stay functional after the rebuild.
  EXPECT_TRUE(pubsub.prune(2).ok());
}

TEST(PubSubTracingTest, FannedOutPublishRecordsOneShardSpanPerShard) {
  // A population at the fan-out threshold: every publish matches its 4
  // shards in parallel. A head-sampled publish still records exactly one
  // shard_match span per shard, each inside the match span; an unsampled
  // one records none. dbsp_shard_match_us keeps one sample per shard per
  // publish either way.
  constexpr std::size_t kShards = 4;
  PubSubOptions options;
  options.engine.shards = kShards;
  PubSub pubsub(market_schema(), options);
  std::vector<SubscriptionHandle> live;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < ShardedEngine::kFanOutSubscriptionsPerShard * kShards; ++i) {
    const std::size_t bound = i % 100;
    if (bound > 50) ++expected;
    live.push_back(pubsub.subscribe("price < " + std::to_string(bound)).value());
  }
  const Event event = tick(pubsub, "ACME", 50.0, 10);

  // Unsampled first: a fresh recorder keeps it through tail admission, so
  // its entry is there to inspect.
  const obs::TraceContext unsampled = obs::make_trace_context(/*sampled=*/false);
  const obs::TraceContext sampled = obs::make_trace_context(/*sampled=*/true);
  EXPECT_EQ(pubsub.publish(event, unsampled), expected);
  EXPECT_EQ(pubsub.publish(event, sampled), expected);

  const auto entry = [&](std::uint64_t trace_id) {
    for (const obs::Trace& t : pubsub.traces()) {
      if (t.trace_id == trace_id) return t;
    }
    ADD_FAILURE() << "no trace entry for " << trace_id;
    return obs::Trace{};
  };
  const auto stage_count = [](const obs::Trace& t, obs::TraceStage stage) {
    return std::count_if(t.spans.begin(), t.spans.end(),
                         [stage](const obs::TraceSpan& sp) { return sp.stage == stage; });
  };

  const obs::Trace quiet = entry(unsampled.trace_id);
  EXPECT_EQ(stage_count(quiet, obs::TraceStage::kMatch), 1);
  EXPECT_EQ(stage_count(quiet, obs::TraceStage::kShardMatch), 0);

  const obs::Trace detailed = entry(sampled.trace_id);
  ASSERT_EQ(stage_count(detailed, obs::TraceStage::kMatch), 1);
  const obs::TraceSpan match = *std::find_if(
      detailed.spans.begin(), detailed.spans.end(),
      [](const obs::TraceSpan& sp) { return sp.stage == obs::TraceStage::kMatch; });
  std::vector<std::uint64_t> shards_seen;
  for (const obs::TraceSpan& sp : detailed.spans) {
    if (sp.stage != obs::TraceStage::kShardMatch) continue;
    shards_seen.push_back(sp.detail);
    EXPECT_GE(sp.start_us, match.start_us) << "shard " << sp.detail;
    EXPECT_LE(sp.start_us + sp.duration_us, match.start_us + match.duration_us)
        << "shard " << sp.detail;
  }
  std::sort(shards_seen.begin(), shards_seen.end());
  EXPECT_EQ(shards_seen, (std::vector<std::uint64_t>{0, 1, 2, 3}));

  const obs::MetricsSnapshot metrics = pubsub.metrics();
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const obs::MetricSnapshot* m =
        metrics.find("dbsp_shard_match_us", {{"shard", std::to_string(shard)}});
    ASSERT_NE(m, nullptr) << "shard " << shard;
    EXPECT_EQ(m->histogram.count, 2u) << "shard " << shard;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PubSubPruningTest, ::testing::Values(1u, 8u),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dbsp
