// ShardedPruningSet + PruningEngine adaptive maintenance: incremental
// admission/release routing, capacity accounting under churn, lazy queue
// compaction, and the drift trigger (retrain + rescore_all).

#include "core/pruning_set.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>
#include <vector>

#include "core/candidates.hpp"
#include "selectivity/estimator.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::Corpus;
using test::MiniDomain;
using test::make_corpus;

class PruningSetTest : public ::testing::Test {
 protected:
  PruningSetTest() : estimator_([](const Predicate&) { return 0.5; }) {}

  MiniDomain dom_;
  SelectivityEstimator estimator_;
  PruneEngineConfig config_;
};

TEST_F(PruningSetTest, RoutesAddRemoveToOwningShard) {
  std::mt19937_64 rng(7);
  Corpus corpus = make_corpus(dom_, rng, 40, 0.1);
  ShardedEngine engine(dom_.schema(), {.shards = 4});
  for (auto& s : corpus.subs) engine.add(*s);

  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());
  EXPECT_EQ(set.shard_count(), 4u);
  EXPECT_EQ(set.subscription_count(), corpus.subs.size());
  for (const auto& s : corpus.subs) {
    EXPECT_TRUE(set.tracks(s->id()));
    EXPECT_TRUE(set.shard(engine.shard_of(s->id())).contains(s->id()));
  }

  const SubscriptionId victim = corpus.subs[11]->id();
  EXPECT_TRUE(set.remove(victim));
  EXPECT_FALSE(set.tracks(victim));
  EXPECT_FALSE(set.remove(victim));  // already released: clean no-op
  EXPECT_EQ(set.subscription_count(), corpus.subs.size() - 1);

  // Pruning to exhaustion never touches the released subscription.
  set.prune(100000);
  for (std::size_t sh = 0; sh < set.shard_count(); ++sh) {
    for (const auto& applied : set.shard(sh).history()) {
      EXPECT_NE(applied.sub, victim);
    }
  }
}

TEST_F(PruningSetTest, ReleaseRollsBackCapacityAndPerformed) {
  std::mt19937_64 rng(11);
  Corpus corpus = make_corpus(dom_, rng, 30, 0.0, 7);
  ShardedEngine engine(dom_.schema(), {.shards = 2});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  // Release before any pruning: the decrement equals the capacity captured
  // at registration (= the current tree's internal prunings).
  Subscription* victim = nullptr;
  for (const auto& s : corpus.subs) {
    if (internal_prunings(s->root()) > 0) {
      victim = s.get();
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const std::size_t cap = internal_prunings(victim->root());
  const std::size_t possible_before = set.total_possible();
  ASSERT_TRUE(set.remove(victim->id()));
  EXPECT_EQ(set.total_possible(), possible_before - cap);

  // Release after pruning: the victim's applied prunings are rolled back
  // from performed() together with its capacity.
  set.prune_to_fraction(0.6);
  const std::size_t performed_before = set.performed();
  Subscription* pruned_victim = nullptr;
  std::size_t victim_performed = 0;
  for (std::size_t sh = 0; sh < set.shard_count() && pruned_victim == nullptr; ++sh) {
    for (const auto& applied : set.shard(sh).history()) {
      if (applied.sub != victim->id()) {
        for (const auto& s : corpus.subs) {
          if (s->id() == applied.sub) pruned_victim = s.get();
        }
        break;
      }
    }
  }
  ASSERT_NE(pruned_victim, nullptr);
  for (std::size_t sh = 0; sh < set.shard_count(); ++sh) {
    for (const auto& applied : set.shard(sh).history()) {
      if (applied.sub == pruned_victim->id()) ++victim_performed;
    }
  }
  ASSERT_GT(victim_performed, 0u);
  ASSERT_TRUE(set.remove(pruned_victim->id()));
  EXPECT_EQ(set.performed(), performed_before - victim_performed);

  // A later full prune still terminates and performed() never exceeds the
  // live capacity.
  set.prune(1u << 20);
  EXPECT_LE(set.performed(), set.total_possible());
}

TEST_F(PruningSetTest, AdmissionIsIncrementalAndNeverRebuilds) {
  std::mt19937_64 rng(13);
  Corpus corpus = make_corpus(dom_, rng, 50, 0.1);
  ShardedEngine engine(dom_.schema(), {.shards = 1});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  auto m = set.maintenance();
  EXPECT_EQ(m.admissions, corpus.subs.size());
  EXPECT_EQ(m.full_rescores, 0u);

  // Late admission under churn: one more subscription, still zero rebuilds.
  auto extra = std::make_unique<Subscription>(SubscriptionId(1000),
                                              dom_.random_tree(rng, 5));
  engine.add(*extra);
  set.add(*extra);
  set.prune(20);
  m = set.maintenance();
  EXPECT_EQ(m.admissions, corpus.subs.size() + 1);
  EXPECT_EQ(m.full_rescores, 0u);
  EXPECT_TRUE(set.tracks(SubscriptionId(1000)));
}

TEST_F(PruningSetTest, HeavyChurnCompactsTheQueueWithoutRescoring) {
  std::mt19937_64 rng(17);
  Corpus corpus = make_corpus(dom_, rng, 300, 0.0, 6);
  ShardedEngine engine(dom_.schema(), {.shards = 1});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  // Release the bulk of the population: dead queue entries pile up until
  // the lazy sweep kicks in.
  for (std::size_t i = 0; i < 250; ++i) {
    ASSERT_TRUE(set.remove(corpus.subs[i]->id()));
    engine.remove(corpus.subs[i]->id());
  }
  const auto m = set.maintenance();
  EXPECT_EQ(m.releases, 250u);
  EXPECT_GE(m.queue_compactions, 1u);
  EXPECT_EQ(m.full_rescores, 0u);

  // The surviving population still prunes to exhaustion correctly.
  set.prune(1u << 20);
  EXPECT_EQ(set.performed(), set.total_possible());
}

TEST_F(PruningSetTest, EachPassLeavesOnlyItsOwnPruningsInTheShardLogs) {
  // A long churn + prune loop, as a broker or scenario soak runs it: the
  // shard logs must hold exactly the last pass instead of growing with
  // every pruning ever applied.
  std::mt19937_64 rng(23);
  Corpus corpus = make_corpus(dom_, rng, 60, 0.0, 6);
  ShardedEngine engine(dom_.schema(), {.shards = 4});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  std::vector<std::unique_ptr<Subscription>> added;
  std::vector<Subscription*> live = corpus.pointers();
  std::size_t total = 0;
  for (std::uint32_t round = 0; round < 300; ++round) {
    const std::size_t victim = rng() % live.size();
    ASSERT_TRUE(set.remove(live[victim]->id()));
    engine.remove(live[victim]->id());
    added.push_back(std::make_unique<Subscription>(
        SubscriptionId(1000 + round), dom_.random_tree(rng, 6)));
    live[victim] = added.back().get();
    engine.add(*live[victim]);
    set.add(*live[victim]);

    const std::size_t done = round % 3 == 0 ? set.prune(2) : set.prune_to_fraction(0.5);
    total += done;
    std::size_t logged = 0;
    for (std::size_t sh = 0; sh < set.shard_count(); ++sh) {
      for (const auto& applied : set.shard(sh).history()) {
        EXPECT_TRUE(set.tracks(applied.sub));
        EXPECT_EQ(engine.shard_of(applied.sub), sh);
        ++logged;
      }
    }
    ASSERT_EQ(logged, done) << "round " << round;
  }
  EXPECT_GT(total, 300u);  // the loop did prune, pass after pass
}

TEST_F(PruningSetTest, DriftTriggerCountsMutationsPerShard) {
  std::mt19937_64 rng(19);
  Corpus corpus = make_corpus(dom_, rng, 20, 0.0);
  ShardedEngine engine(dom_.schema(), {.shards = 1});
  for (auto& s : corpus.subs) engine.add(*s);
  ShardedPruningSet set(engine, estimator_, config_, corpus.pointers());

  // Arming resets the mutation count: the initial bulk load is not churn.
  set.set_drift_threshold(10);
  EXPECT_FALSE(set.drift_pending());

  for (std::size_t i = 0; i < 5; ++i) {
    set.remove(corpus.subs[i]->id());
    engine.remove(corpus.subs[i]->id());
  }
  EXPECT_FALSE(set.drift_pending());  // 5 mutations < 10
  for (std::size_t i = 5; i < 10; ++i) {
    set.remove(corpus.subs[i]->id());
    engine.remove(corpus.subs[i]->id());
  }
  EXPECT_TRUE(set.drift_pending());  // 10 mutations

  set.rescore_all();
  EXPECT_FALSE(set.drift_pending());
  EXPECT_EQ(set.maintenance().full_rescores, 1u);
}

TEST(PruningSetRescoreTest, RescoreAllReordersQueueAfterEstimatorChange) {
  // Leaf selectivities are read through a mutable table the estimator
  // captures by reference — the same shape as EventStats retraining.
  Schema schema;
  std::array<AttributeId, 4> attr{};
  for (std::size_t i = 0; i < attr.size(); ++i) {
    attr[i] = schema.add_attribute("a" + std::to_string(i), ValueType::Int);
  }
  std::array<double, 4> sel = {0.9, 0.2, 0.9, 0.9};
  const SelectivityEstimator estimator(
      [&sel](const Predicate& p) { return sel[p.attribute().value()]; });

  auto tree = [&](std::size_t i, std::size_t j) {
    std::vector<std::unique_ptr<Node>> parts;
    parts.push_back(Node::leaf(Predicate(attr[i], Op::Lt, Value(10))));
    parts.push_back(Node::leaf(Predicate(attr[j], Op::Lt, Value(10))));
    return Node::and_(std::move(parts));
  };

  PruneEngineConfig config;  // NetworkLoad primary
  auto run = [&](bool rescore) {
    ShardedEngine engine(schema, {.shards = 1});
    Subscription a(SubscriptionId(1), tree(0, 1));  // cheap pruning: drop a0
    Subscription b(SubscriptionId(2), tree(2, 3));  // medium-cost prunings
    engine.add(a);
    engine.add(b);
    sel = {0.9, 0.2, 0.9, 0.9};
    ShardedPruningSet set(engine, estimator, config, {&a, &b});
    // Drift: a1 suddenly matches almost everything, so pruning a0 out of
    // subscription 1 would now degrade selectivity badly.
    sel[1] = 0.999;
    if (rescore) set.rescore_all();
    set.prune(1);
    return set.shard(0).history().front().sub;
  };

  // Stale queue: the pre-drift ordering still applies subscription 1 first.
  EXPECT_EQ(run(false), SubscriptionId(1));
  // Rescored queue: subscription 2's pruning is now the cheaper one.
  EXPECT_EQ(run(true), SubscriptionId(2));
}

}  // namespace
}  // namespace dbsp
