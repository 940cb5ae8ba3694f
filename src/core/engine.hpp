#pragma once

/// \file
/// The dimension-based pruning engine: one priority queue of best candidate
/// prunings per registered subscription (paper §3.4).

#include <cstdint>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/candidates.hpp"
#include "core/dimension.hpp"
#include "core/heuristics.hpp"
#include "filter/counting_matcher.hpp"
#include "selectivity/estimator.hpp"
#include "subscription/subscription.hpp"

namespace dbsp {

/// Configuration of a pruning run.
struct PruneEngineConfig {
  /// Primary optimization dimension; the tie-break order defaults to the
  /// paper's §3.4 orders but can be overridden (ablation A4).
  PruneDimension dimension = PruneDimension::NetworkLoad;
  std::optional<std::array<PruneDimension, 3>> order;
  /// Bottom-up restriction of §3.2. Disable only for ablation A3; without
  /// it the total number of prunings is order-dependent.
  bool bottom_up = true;

  [[nodiscard]] std::array<PruneDimension, 3> effective_order() const {
    return order.value_or(default_order(dimension));
  }
};

/// The dimension-based pruning engine (paper §3.4).
///
/// Holds one priority queue whose entries are the current *best* candidate
/// pruning of each registered subscription, keyed by the composite
/// (primary, secondary, tertiary) heuristic rating. prune_one() pops the
/// globally most effective pruning, applies it, resynchronizes the matcher
/// and re-inserts the subscription's next-best candidate — exactly the
/// scheme of §3.4. Stale queue entries (from superseded generations) are
/// skipped lazily.
///
/// Churn is incremental by design: register_subscription() admits one
/// subscription by scoring only its own candidates (one queue push, no
/// rebuild), and unregister_subscription() releases in O(1) plus a lazy
/// queue sweep once dead entries pile up. The only full re-scoring path is
/// rescore_all(), fired deliberately by the drift trigger after the
/// selectivity statistics were retrained — never by plain churn
/// (maintenance() counts both so tests can prove it).
///
/// Not thread-safe: all members mutate engine, subscription, or matcher
/// state and require external synchronization. Under the sharded engine,
/// run one PruningEngine per shard (ShardedPruningSet); engines
/// of different shards touch disjoint subscriptions and matchers, so they
/// may safely run on different threads.
class PruningEngine {
 public:
  /// `matcher` may be null for pure-algorithm runs (no index maintenance).
  PruningEngine(const SelectivityEstimator& estimator, PruneEngineConfig config,
                CountingMatcher* matcher = nullptr);

  /// Registers a subscription in its *unpruned* state: captures the Δ≈sel /
  /// Δ≈eff baseline, the subscription's pruning capacity, and queues the
  /// best candidate — O(candidates of this subscription), independent of
  /// how many subscriptions are already registered. The subscription must
  /// outlive the engine.
  void register_subscription(Subscription& sub);
  /// Releases a subscription: capacity and performed-pruning accounting are
  /// rolled back and its queue entry dies lazily (swept by the next
  /// compaction). Unknown ids are ignored, so unsubscribe paths can call
  /// this unconditionally.
  void unregister_subscription(SubscriptionId id);
  [[nodiscard]] bool contains(SubscriptionId id) const {
    return subs_.count(id.value()) != 0;
  }
  [[nodiscard]] std::size_t subscription_count() const { return subs_.size(); }

  /// Performs the globally most effective pruning. Returns false when no
  /// valid pruning remains ("any other pruning removes a complete
  /// subscription").
  bool prune_one();
  /// Performs up to `k` prunings; returns how many were performed.
  std::size_t prune(std::size_t k);

  /// §3.4's second stopping rule: prunes while the *next* pruning's rating
  /// on the primary dimension is still within `budget`, i.e. while
  /// Δ≈sel <= budget (network), Δ≈mem >= budget (memory) or
  /// Δ≈eff >= budget (throughput). Returns the number performed.
  std::size_t prune_until(double budget);

  /// Σ over *currently registered* subscriptions of their pruning capacity
  /// a(root) — the paper's x-axis denominator. Capacity is captured at
  /// registration time and rolled back when a subscription is released, so
  /// under churn the denominator tracks the live population.
  [[nodiscard]] std::size_t total_possible() const { return total_possible_; }
  /// Prunings performed on currently registered subscriptions (prunings of
  /// since-released subscriptions are rolled back with their capacity).
  [[nodiscard]] std::size_t performed() const { return performed_; }

  // --- Adaptive maintenance (churn + drift) -------------------------------

  /// Counters proving the engine's maintenance behavior under churn:
  /// admissions/releases are incremental; full_rescores only ever moves on
  /// rescore_all() (the drift path); queue_compactions are lazy dead-entry
  /// sweeps that re-score nothing.
  struct MaintenanceCounters {
    std::uint64_t admissions = 0;
    std::uint64_t releases = 0;
    std::uint64_t queue_compactions = 0;
    std::uint64_t full_rescores = 0;
  };
  [[nodiscard]] const MaintenanceCounters& maintenance() const { return maintenance_; }

  /// Arms the drift trigger: after `mutations` register/unregister calls
  /// the engine reports drift_pending(), asking its owner to retrain the
  /// selectivity statistics and call rescore_all(). 0 disarms the trigger.
  /// Resets the mutation counter so an initial bulk load does not count.
  void set_drift_threshold(std::size_t mutations) {
    drift_threshold_ = mutations;
    mutations_since_rescore_ = 0;
  }
  [[nodiscard]] std::size_t drift_threshold() const { return drift_threshold_; }
  [[nodiscard]] std::size_t mutations_since_rescore() const {
    return mutations_since_rescore_;
  }
  [[nodiscard]] bool drift_pending() const {
    return drift_threshold_ > 0 && mutations_since_rescore_ >= drift_threshold_;
  }

  /// Re-scores every registered subscription's best candidate against the
  /// estimator's *current* values and rebuilds the queue. This is the one
  /// full-rebuild path, meant to run after the backing EventStats were
  /// retrained (the estimator holds them by reference, so retraining
  /// propagates without rewiring). Baselines (OriginalProfile) deliberately
  /// stay as captured at registration.
  void rescore_all();

  /// Per-subscription pruning accounting: {capacity captured at
  /// registration, prunings performed since}. nullopt for unknown ids.
  /// Snapshotted by the durable store so accounting survives restarts.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>> accounting(
      SubscriptionId id) const;

  /// Crash-recovery hook: overrides a registered subscription's captured
  /// capacity and performed count with the values persisted before the
  /// crash. register_subscription() sees the recovered (already pruned)
  /// tree and would otherwise capture the smaller post-pruning capacity,
  /// silently shrinking total_possible()/performed() — and with them every
  /// prune_to_fraction() target — across a restart. Throws
  /// std::invalid_argument for unregistered ids.
  void restore_accounting(SubscriptionId id, std::size_t capacity,
                          std::size_t performed);

  /// Best candidate currently queued for a subscription (for tests).
  [[nodiscard]] std::optional<PruneScores> peek_best(SubscriptionId id) const;

  /// Rating of the globally best pending pruning on the primary dimension
  /// (oriented: smaller is better), or nullopt when exhausted. Skips stale
  /// queue entries without performing anything.
  [[nodiscard]] std::optional<double> next_primary_rating();

  struct Applied {
    SubscriptionId sub;
    PruneScores scores;
  };
  /// Chronological log of applied prunings (drives the ablation benches).
  /// It grows by one entry per pruning until clear_history().
  [[nodiscard]] const std::vector<Applied>& history() const { return history_; }
  /// Empties the log. A long-running owner that reads only each pass's
  /// prunings drains it after every pass, so the log stays bounded.
  void clear_history() { history_.clear(); }

  [[nodiscard]] const OriginalProfile* original_profile(SubscriptionId id) const;
  [[nodiscard]] const PruneEngineConfig& config() const { return config_; }

 private:
  struct QueueEntry {
    std::array<double, 3> key{};
    std::uint64_t seq = 0;  // FIFO among exact ties, for determinism
    std::uint64_t generation = 0;
    SubscriptionId sub;
    Node::Path path;
    PruneScores scores;
  };
  struct Compare {
    // priority_queue keeps the *largest* on top; invert to get the
    // smallest composite key (the most effective pruning) on top.
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };
  struct SubState {
    Subscription* sub = nullptr;
    OriginalProfile original;
    std::size_t capacity = 0;   ///< pruning capacity captured at registration
    std::size_t performed = 0;  ///< prunings applied to this subscription
    bool queued = false;        ///< has a (single) live entry in queue_
  };

  /// Scores all valid candidates of `state.sub`'s current tree and pushes
  /// the best one (if any); maintains state.queued.
  void push_best_candidate(SubState& state);
  /// Sweeps dead queue entries (released subscriptions) once they dominate
  /// the queue. Filters and re-heapifies; re-scores nothing.
  void maybe_compact();

  PruneEngineConfig config_;
  HeuristicScorer scorer_;
  CountingMatcher* matcher_;
  std::unordered_map<SubscriptionId::value_type, SubState> subs_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, Compare> queue_;
  std::vector<Applied> history_;
  std::size_t total_possible_ = 0;
  std::size_t performed_ = 0;
  std::uint64_t next_seq_ = 0;

  MaintenanceCounters maintenance_;
  std::size_t dead_entries_ = 0;  ///< upper bound on released entries in queue_
  std::size_t drift_threshold_ = 0;
  std::size_t mutations_since_rescore_ = 0;
};

}  // namespace dbsp
