#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "subscription/parser.hpp"

namespace dbsp {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    schema_.add_attribute("a", ValueType::Int);  // leaf sel 0.1
    schema_.add_attribute("b", ValueType::Int);  // leaf sel 0.5
    schema_.add_attribute("c", ValueType::Int);  // leaf sel 0.9
    estimator_ = std::make_unique<SelectivityEstimator>(
        LeafSelectivityFn([](const Predicate& p) {
          switch (p.attribute().value()) {
            case 0: return 0.1;
            case 1: return 0.5;
            default: return 0.9;
          }
        }));
  }

  [[nodiscard]] std::unique_ptr<Subscription> sub(std::uint32_t id,
                                                  std::string_view text) const {
    return std::make_unique<Subscription>(SubscriptionId(id),
                                          parse_subscription(text, schema_));
  }

  [[nodiscard]] PruningEngine engine(PruneDimension dim,
                                     CountingMatcher* matcher = nullptr) const {
    PruneEngineConfig cfg;
    cfg.dimension = dim;
    return PruningEngine(*estimator_, cfg, matcher);
  }

  Schema schema_;
  std::unique_ptr<SelectivityEstimator> estimator_;
};

TEST_F(EngineTest, TotalPossibleSumsSubscriptionCapacities) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s1 = sub(1, "a=1 and b=2 and c=3");          // 2 prunings
  auto s2 = sub(2, "a=1 and (b=2 or c=3)");         // 1 pruning
  auto s3 = sub(3, "a=1");                          // 0 prunings
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  e.register_subscription(*s3);
  EXPECT_EQ(e.total_possible(), 3u);
  EXPECT_EQ(e.prune(100), 3u);  // exhausts
  EXPECT_FALSE(e.prune_one());
  EXPECT_EQ(e.performed(), 3u);
}

TEST_F(EngineTest, NetworkDimensionPrunesLeastSelectiveFirst) {
  auto e = engine(PruneDimension::NetworkLoad);
  // Pruning c (sel 0.9) from s1 degrades little; pruning a (sel 0.1) from
  // s2 degrades a lot. The engine must pick s1's pruning first.
  auto s1 = sub(1, "a=1 and c=2");
  auto s2 = sub(2, "a=3 and b=4");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  ASSERT_TRUE(e.prune_one());
  ASSERT_EQ(e.history().size(), 1u);
  EXPECT_EQ(e.history()[0].sub, SubscriptionId(1));
  // s1 lost the c conjunct (kept the selective a).
  EXPECT_EQ(s1->root().to_string(schema_), "a = 1");
}

TEST_F(EngineTest, ClearHistoryDrainsTheLogOnly) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s1 = sub(1, "a=1 and b=2 and c=3");  // 2 prunings
  e.register_subscription(*s1);
  ASSERT_TRUE(e.prune_one());
  ASSERT_EQ(e.history().size(), 1u);
  e.clear_history();
  EXPECT_TRUE(e.history().empty());
  // The accounting and the queue are untouched; the log restarts with the
  // next pruning.
  EXPECT_EQ(e.performed(), 1u);
  ASSERT_TRUE(e.prune_one());
  ASSERT_EQ(e.history().size(), 1u);
  EXPECT_EQ(e.history()[0].sub, SubscriptionId(1));
  EXPECT_EQ(e.performed(), 2u);
}

TEST_F(EngineTest, MemoryDimensionPrunesBiggestValidSubtreeFirst) {
  auto e = engine(PruneDimension::MemoryUsage);
  auto s1 = sub(1, "a=1 and b=2");                      // small win
  auto s2 = sub(2, "a=3 and (b=4 or b=5 or b=6 or b=7)");  // big Or group
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  ASSERT_TRUE(e.prune_one());
  EXPECT_EQ(e.history()[0].sub, SubscriptionId(2));
  EXPECT_EQ(s2->root().to_string(schema_), "a = 3");
}

TEST_F(EngineTest, ThroughputDimensionPreservesPmin) {
  auto e = engine(PruneDimension::Throughput);
  // s1: pruning inside the or-group keeps pmin at 2 (Δeff = 0).
  // s2: any pruning drops pmin 2 -> 1 (Δeff = -1).
  auto s1 = sub(1, "a=1 and (b=2 or (b=3 and c=4))");
  auto s2 = sub(2, "a=5 and b=6");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  ASSERT_TRUE(e.prune_one());
  EXPECT_EQ(e.history()[0].sub, SubscriptionId(1));
  EXPECT_DOUBLE_EQ(e.history()[0].scores.eff_improvement, 0.0);
}

TEST_F(EngineTest, TieBrokenBySecondaryDimension) {
  // With an all-1.0 leaf estimator every pruning has zero selectivity
  // degradation, so the network order must fall through to its secondary
  // dimension (throughput): s2's pruning keeps pmin (Δeff = 0) while s1's
  // lowers it (Δeff = -1) — s2 must win even though it registered later.
  const SelectivityEstimator ones(
      LeafSelectivityFn([](const Predicate&) { return 1.0; }));
  PruneEngineConfig cfg;
  cfg.dimension = PruneDimension::NetworkLoad;
  PruningEngine e(ones, cfg);
  auto s1 = sub(1, "a=5 and b=6");
  auto s2 = sub(2, "a=1 and (b=2 or (b=3 and c=4))");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  const auto best1 = e.peek_best(SubscriptionId(1));
  const auto best2 = e.peek_best(SubscriptionId(2));
  ASSERT_TRUE(best1 && best2);
  ASSERT_DOUBLE_EQ(best1->sel_degradation, best2->sel_degradation);
  ASSERT_TRUE(e.prune_one());
  EXPECT_EQ(e.history()[0].sub, SubscriptionId(2));
  EXPECT_DOUBLE_EQ(e.history()[0].scores.eff_improvement, 0.0);
}

TEST_F(EngineTest, QueueReinsertsNextBestAfterPrune) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2 and c=3");
  e.register_subscription(*s);
  // First pruning removes c (cheapest), then b, keeping the most selective.
  ASSERT_TRUE(e.prune_one());
  EXPECT_EQ(s->root().to_string(schema_), "(a = 1 and b = 2)");
  ASSERT_TRUE(e.prune_one());
  EXPECT_EQ(s->root().to_string(schema_), "a = 1");
  EXPECT_FALSE(e.prune_one());
}

TEST_F(EngineTest, HistoryScoresAreMonotoneForNetworkDimension) {
  // Greedy best-first on a fixed baseline: within one subscription the
  // successive degradations (vs original) are non-decreasing.
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2 and c=3 and c=4 and b=5");
  e.register_subscription(*s);
  e.prune(100);
  for (std::size_t i = 1; i < e.history().size(); ++i) {
    EXPECT_GE(e.history()[i].scores.sel_degradation,
              e.history()[i - 1].scores.sel_degradation - 1e-12);
  }
}

TEST_F(EngineTest, UnregisterDropsPendingPrunings) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s1 = sub(1, "a=1 and b=2");
  auto s2 = sub(2, "b=3 and c=4");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  e.unregister_subscription(SubscriptionId(2));
  EXPECT_EQ(e.prune(100), 1u);  // only s1's pruning runs
  EXPECT_EQ(e.history()[0].sub, SubscriptionId(1));
}

TEST_F(EngineTest, DuplicateRegistrationThrows) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2");
  e.register_subscription(*s);
  EXPECT_THROW(e.register_subscription(*s), std::invalid_argument);
}

TEST_F(EngineTest, MatcherStaysInSyncDuringPruning) {
  CountingMatcher matcher(schema_);
  auto e = engine(PruneDimension::MemoryUsage, &matcher);
  auto s1 = sub(1, "a=1 and b=2 and c=3");
  auto s2 = sub(2, "a=1 and (b=4 or c=5)");
  matcher.add(*s1);
  matcher.add(*s2);
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  const auto before = matcher.association_count();
  e.prune(100);
  EXPECT_LT(matcher.association_count(), before);

  // After full pruning both subscriptions are single predicates and the
  // matcher must agree with direct evaluation.
  Event ev;
  ev.set(schema_.at("a"), Value(1));
  std::vector<SubscriptionId> out;
  matcher.match(ev, out);
  std::size_t direct = 0;
  if (s1->matches(ev)) ++direct;
  if (s2->matches(ev)) ++direct;
  EXPECT_EQ(out.size(), direct);
}

TEST_F(EngineTest, CustomTieBreakOrderIsHonored) {
  PruneEngineConfig cfg;
  cfg.dimension = PruneDimension::NetworkLoad;
  cfg.order = std::array<PruneDimension, 3>{PruneDimension::NetworkLoad,
                                            PruneDimension::MemoryUsage,
                                            PruneDimension::Throughput};
  PruningEngine e(*estimator_, cfg);
  EXPECT_EQ(e.config().effective_order()[1], PruneDimension::MemoryUsage);
}

TEST_F(EngineTest, PruneUntilRespectsNetworkBudget) {
  // a(0.1) and b(0.5) and c(0.9): pruning c degrades by ~0.05 (avg
  // component), pruning b by 0.4+, pruning a by 0.8+. A small budget must
  // stop after the cheap pruning.
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2 and c=3");
  e.register_subscription(*s);
  const auto first = e.next_primary_rating();
  ASSERT_TRUE(first.has_value());
  const std::size_t done = e.prune_until(*first + 1e-9);
  EXPECT_EQ(done, 1u);
  EXPECT_EQ(s->root().to_string(schema_), "(a = 1 and b = 2)");
  // A generous budget exhausts everything.
  EXPECT_EQ(e.prune_until(1.0), 1u);
  EXPECT_FALSE(e.next_primary_rating().has_value());
}

TEST_F(EngineTest, PruneUntilRespectsMemoryBudget) {
  auto e = engine(PruneDimension::MemoryUsage);
  // s2's or-group pruning saves far more bytes than s1's leaf pruning.
  auto s1 = sub(1, "a=1 and b=2");
  auto s2 = sub(2, "a=3 and (b=4 or b=5 or b=6 or b=7)");
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  // Budget: only prunings saving >= 100 bytes — exactly the or-group cut.
  const std::size_t done = e.prune_until(100.0);
  EXPECT_EQ(done, 1u);
  EXPECT_EQ(e.history()[0].sub, SubscriptionId(2));
  EXPECT_GE(e.history()[0].scores.mem_improvement, 100.0);
  // The remaining candidates all save less than the budget.
  const auto next = e.peek_best(SubscriptionId(1));
  ASSERT_TRUE(next.has_value());
  EXPECT_LT(next->mem_improvement, 100.0);
}

TEST_F(EngineTest, PruneUntilThroughputBudgetStopsAtPminLoss) {
  auto e = engine(PruneDimension::Throughput);
  auto s1 = sub(1, "a=1 and (b=2 or (b=3 and c=4))");  // Δeff = 0 available
  auto s2 = sub(2, "a=5 and b=6");                     // only Δeff = -1
  e.register_subscription(*s1);
  e.register_subscription(*s2);
  // Budget Δ≈eff >= 0: performs only pmin-preserving prunings.
  const std::size_t done = e.prune_until(0.0);
  EXPECT_EQ(done, 1u);
  EXPECT_EQ(e.history()[0].sub, SubscriptionId(1));
}

TEST_F(EngineTest, OriginalProfileIsStableAcrossPrunings) {
  auto e = engine(PruneDimension::NetworkLoad);
  auto s = sub(1, "a=1 and b=2 and c=3");
  e.register_subscription(*s);
  const auto* orig = e.original_profile(SubscriptionId(1));
  ASSERT_NE(orig, nullptr);
  const double avg0 = orig->sel.avg;
  const auto pmin0 = orig->pmin;
  e.prune(2);
  EXPECT_DOUBLE_EQ(e.original_profile(SubscriptionId(1))->sel.avg, avg0);
  EXPECT_EQ(e.original_profile(SubscriptionId(1))->pmin, pmin0);
  EXPECT_EQ(e.original_profile(SubscriptionId(42)), nullptr);
}

}  // namespace
}  // namespace dbsp
