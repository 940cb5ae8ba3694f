#pragma once

/// \file
/// The sharded concurrent matching engine and its per-shard pruning hook —
/// the scaling layer between the matchers (filter/) and the broker.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "filter/counting_matcher.hpp"
#include "filter/dnf_matcher.hpp"
#include "filter/naive_matcher.hpp"
#include "obs/metrics.hpp"
#include "subscription/subscription.hpp"

namespace dbsp {

namespace agg {
class SubscriptionAggregator;
}  // namespace agg

namespace obs {
class TraceBuilder;
}  // namespace obs

/// Which matcher algorithm each shard runs. All shards of one engine use
/// the same backend; the choice trades per-event cost against feature set
/// (only Counting supports reindex-after-pruning and the pmin trigger).
enum class MatcherBackend {
  Counting,  ///< non-canonical counting matcher (the pruning substrate)
  Dnf,       ///< canonical DNF counting matcher (baseline; add() can fail)
  Naive,     ///< direct tree evaluation (correctness oracle)
};

[[nodiscard]] const char* to_string(MatcherBackend backend);

/// Construction-time knobs of a ShardedEngine.
struct ShardedEngineOptions {
  /// Number of shards. 0 = auto: the DBSP_SHARDS environment knob when set,
  /// otherwise the machine's hardware concurrency.
  std::size_t shards = 0;
  MatcherBackend backend = MatcherBackend::Counting;
  /// Conversion cap forwarded to DnfMatcher::add (Dnf backend only).
  std::size_t max_dnf_conjunctions = 4096;
  /// Aggregated-match candidate budget as a percentage of the table: when
  /// the summary probe admits more than this share of the subscriptions,
  /// the event falls back to the exact shard index (whose per-subscription
  /// cost is far below a naive tree evaluation). 0 disables the fallback
  /// (always evaluate the admitted candidates). SIZE_MAX = auto: the
  /// DBSP_AGG_FALLBACK_PCT environment knob, default 10.
  std::size_t agg_fallback_pct = static_cast<std::size_t>(-1);
};

/// Resolves a requested shard count: a positive request is taken verbatim;
/// 0 reads env_int("DBSP_SHARDS") and falls back to hardware concurrency.
/// The result is always at least 1.
[[nodiscard]] std::size_t resolve_shard_count(std::size_t requested);

/// A horizontally partitioned matching engine: subscriptions are spread
/// across N shards by a stable hash of their id, with one independent
/// matcher instance (and thus one independent filter table) per shard.
/// Sharding composes with dimension-based pruning — pruning shrinks every
/// shard's filter table, sharding splits the tables across cores — and is
/// the first scaling layer toward the ROADMAP's high-traffic target.
///
/// Matching semantics are exactly those of the underlying matcher: every
/// event is checked against all shards, and because each subscription lives
/// in exactly one shard the union of the shard results equals the unsharded
/// match set. Both match() and match_batch() return each event's matches
/// sorted by subscription id, so results are deterministic and independent
/// of the shard count (proved by sharded_engine_test).
///
/// Thread safety: add/remove/reindex and the match entry points mutate
/// engine state and must be externally serialized — one writer OR one
/// matching call at a time (the match-vs-churn exclusion contract).
/// Inside a matching call the engine may fan the work out on an internal
/// thread pool (shard_count() - 1 workers, created lazily on first use):
/// match_batch() always does when shard_count() > 1, and match() does once
/// the table holds at least kFanOutSubscriptionsPerShard subscriptions per
/// shard. Shard 0 runs on the calling thread; each worker touches only its
/// own shard's matcher, scratch row and metrics series, so no two threads
/// ever share mutable state, and the call returns only after every worker
/// finished. Distinct ShardedEngine instances are fully independent and
/// may be used from different threads concurrently.
///
/// Enforcement: the engine itself carries no lock — its serializer is its
/// owner. In the public API the owning PubSubCore declares its engine
/// member DBSP_GUARDED_BY the facade mutex, so under clang's thread-safety
/// analysis any facade path that touches the engine without holding that
/// lock is a compile error, and tests/concurrent_stress_test.cpp races
/// the contract under ThreadSanitizer (see docs/ARCHITECTURE.md
/// "Concurrency contracts & static analysis").
class ShardedEngine {
 public:
  explicit ShardedEngine(const Schema& schema, ShardedEngineOptions options = {});

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Registers `sub` with the matcher of its shard. Returns false (and
  /// registers nothing) only for the Dnf backend when the tree is not
  /// DNF-convertible within the conjunction cap. The subscription must
  /// outlive the engine and its address must be stable. A subscription may
  /// be registered with at most one counting-backed engine at a time (the
  /// counting matcher stamps its predicate ids into the tree's leaves).
  bool add(Subscription& sub);

  /// Unregisters by id; throws std::out_of_range when unknown (uniform
  /// across all three backends).
  void remove(SubscriptionId id);

  /// Re-synchronizes the owning shard after the subscription's tree changed
  /// (pruning). Counting backend only; throws std::logic_error otherwise.
  void reindex(Subscription& sub);

  [[nodiscard]] bool contains(SubscriptionId id) const;
  [[nodiscard]] std::size_t subscription_count() const;

  /// Predicate/subscription associations summed over shards (the memory
  /// metric). Counting and Dnf backends; 0 for Naive.
  [[nodiscard]] std::size_t association_count() const;
  /// Associations contributed by one subscription (Counting backend only).
  [[nodiscard]] std::size_t associations_of(SubscriptionId id) const;

  /// Single events fan out across the shards (shard 0 on the calling
  /// thread, the rest on the internal pool) once the table averages this
  /// many subscriptions per shard; below it every shard runs on the
  /// caller. Set at the measured crossover: on an otherwise idle 4-vCPU
  /// Xeon host, 4 shards fanned out beat the same 4 shards matched in turn
  /// from 192 subscriptions per shard on, in every run, and were mixed at
  /// 128 (bench/micro_sharded.cpp BM_ShardedFanOutCrossover). Whether a
  /// host whose other cores are busy still gains there is not measured.
  static constexpr std::size_t kFanOutSubscriptionsPerShard = 192;

  /// Matches one event against every shard and appends the union of the
  /// shard results to `out`, sorted by id. The shards run in parallel
  /// from kFanOutSubscriptionsPerShard subscriptions per shard on.
  /// A non-null `trace` collects per-stage spans (aggregation probe,
  /// fallback, per-shard match) for head-sampled traces.
  void match(const Event& event, std::vector<SubscriptionId>& out,
             obs::TraceBuilder* trace = nullptr);

  /// Batched dispatch: fans `events` out to the shards (shard 0 runs on the
  /// calling thread, the rest on the internal pool), then merges the
  /// per-shard results into one sorted subscriber-id list per event.
  /// `out` is resized to events.size(); row buffers are reused.
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<SubscriptionId>>& out);

  /// Convenience overload allocating the result rows.
  [[nodiscard]] std::vector<std::vector<SubscriptionId>> match_batch(
      std::span<const Event> events);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Stable shard assignment of a subscription id (splitmix64 finalizer,
  /// identical on every platform and run).
  [[nodiscard]] std::size_t shard_of(SubscriptionId id) const;
  [[nodiscard]] MatcherBackend backend() const { return options_.backend; }

  /// Direct access to one shard's CountingMatcher — the hook for running a
  /// PruningEngine per shard. Throws std::logic_error for other backends.
  [[nodiscard]] CountingMatcher& counting_shard(std::size_t shard);
  [[nodiscard]] const CountingMatcher& counting_shard(std::size_t shard) const;

  /// Introspection counters summed over shards (Counting backend; zeros
  /// otherwise).
  [[nodiscard]] CountingMatcher::Counters counters() const;
  void reset_counters();

  /// Attaches an aggregation front stage (or nullptr to detach). While
  /// attached the engine forwards add/remove/reindex churn to the
  /// aggregator and routes match()/match_batch() through it: events probe
  /// the subgroup summaries and only the member trees of admitted
  /// subgroups are evaluated (false-positive-only probing, so results stay
  /// identical to the unaggregated path). When the probe admits more than
  /// agg_fallback_pct percent of the table, the event is matched by the
  /// exact shard index instead — same results, index-speed worst case —
  /// and while that budget is still below the subgroup count (small
  /// populations), the probe is skipped entirely since it could not pay
  /// for itself. The shard matchers keep indexing
  /// every subscription, so pruning and the introspection surface keep
  /// working. The aggregator must outlive the attachment, be empty when
  /// attached to a non-empty engine's owner flow (attach before the first
  /// add), and be churned exclusively through this engine afterwards.
  /// In match_batch() the internal pool parallelizes over *events* instead
  /// of shards while an aggregator is attached.
  void attach_aggregation(agg::SubscriptionAggregator* aggregator);
  [[nodiscard]] agg::SubscriptionAggregator* aggregation() const { return aggregator_; }

  /// Registers per-shard observability series with `registry`:
  /// `dbsp_shard_match_us{shard="i"}` (per-shard match latency in
  /// microseconds — per event in match(), per batch in match_batch()) and
  /// `dbsp_shard_batch_events{shard="i"}` (match_batch batch sizes). The
  /// registry must outlive the engine; recording is lock-free, so the
  /// shard workers stay contention-free (each worker touches
  /// only its own shard's series). Call at most once, before matching
  /// starts; without it matching records nothing.
  void attach_metrics(obs::MetricsRegistry& registry);

 private:
  using ShardMatcher = std::variant<CountingMatcher, DnfMatcher, NaiveMatcher>;

  /// Lazily created fan-out pool (shard_count() - 1 workers).
  ThreadPool& pool();
  /// Runs task(0) .. task(tasks - 1): task 0 on the calling thread and the
  /// rest on the pool when `parallel`, all on the caller otherwise. The
  /// pool tasks reference the caller's stack, so every path — including a
  /// task throwing — waits for all of them before the first failure is
  /// rethrown.
  /// A template, so the serial loop calls `task` directly and allocates
  /// nothing.
  template <class Task>
  void fork_join(std::size_t tasks, bool parallel, Task& task);
  void match_shard(std::size_t shard, const Event& event,
                   std::vector<SubscriptionId>& out);
  /// The shard stage of match(), appending to `out` (unsorted): inline,
  /// every shard appends straight to `out`; fanned out, each shard fills
  /// its shard_rows_ entry and the caller merges them after the join.
  void match_all_shards(const Event& event, std::vector<SubscriptionId>& out,
                        obs::TraceBuilder* trace);

  /// The shard's histogram when attach_metrics ran, else nullptr.
  [[nodiscard]] obs::Histogram* shard_hist(
      const std::vector<obs::Histogram*>& hists, std::size_t shard) const {
    return shard < hists.size() ? hists[shard] : nullptr;
  }

  /// Aggregated-match candidate budget for one event (SIZE_MAX when the
  /// fallback is disabled).
  [[nodiscard]] std::size_t aggregated_budget() const;

  /// Probing costs one admit check per subgroup slot; when the candidate
  /// budget is below that, even a perfectly pruned probe cannot save more
  /// work than it spends, so small populations route straight to the
  /// counting shards.
  [[nodiscard]] bool use_aggregated_path() const;

  /// Aggregated batch dispatch: the pool chunks `events` across workers,
  /// each probing the (read-only) aggregator into disjoint `out` rows.
  /// Events whose probe exceeds the candidate budget are re-run through
  /// the shard-parallel path afterwards.
  void match_batch_aggregated(std::span<const Event> events,
                              std::vector<std::vector<SubscriptionId>>& out);

  /// Unaggregated batch dispatch (shard fan-out on the pool).
  void match_batch_sharded(std::span<const Event> events,
                           std::vector<std::vector<SubscriptionId>>& out);

  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<ShardMatcher>> shards_;
  agg::SubscriptionAggregator* aggregator_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  /// Per-shard result rows reused across match_batch calls.
  std::vector<std::vector<std::vector<SubscriptionId>>> batch_scratch_;
  /// One shard's part of a single-event match: its matches and, for
  /// head-sampled traces, its span timing (stamped by the worker, added to
  /// the single-threaded TraceBuilder by the caller after the join).
  struct ShardRow {
    std::vector<SubscriptionId> ids;
    std::uint64_t start_us = 0;
    std::uint64_t duration_us = 0;
  };
  std::vector<ShardRow> shard_rows_;
  /// Per-shard series (empty until attach_metrics; then one per shard).
  std::vector<obs::Histogram*> shard_match_us_;
  std::vector<obs::Histogram*> shard_batch_events_;
};

/// Builds one PruningEngine per shard of `engine` (Counting backend
/// required), wired to that shard's matcher, and registers each of `subs`
/// with the engine owning its shard. Pruning each engine to a fraction of
/// its own capacity approximates the global priority-queue schedule while
/// keeping all index maintenance shard-local.
///
/// Most callers want the ShardedPruningSet wrapper (core/pruning_set.hpp),
/// which owns these engines and routes unregister_subscription to the
/// owning shard — raw use leaves unsubscribe routing to the caller.
[[nodiscard]] std::vector<std::unique_ptr<PruningEngine>> make_sharded_pruning_engines(
    ShardedEngine& engine, const SelectivityEstimator& estimator,
    const PruneEngineConfig& config, const std::vector<Subscription*>& subs);

}  // namespace dbsp
