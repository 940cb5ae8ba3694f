#include "core/pruning_set.hpp"

#include <cmath>

namespace dbsp {

ShardedPruningSet::ShardedPruningSet(ShardedEngine& engine,
                                     const SelectivityEstimator& estimator,
                                     const PruneEngineConfig& config,
                                     const std::vector<Subscription*>& subs)
    : engine_(&engine),
      shards_(make_sharded_pruning_engines(engine, estimator, config, subs)) {}

void ShardedPruningSet::add(Subscription& sub) {
  shards_[engine_->shard_of(sub.id())]->register_subscription(sub);
}

bool ShardedPruningSet::remove(SubscriptionId id) {
  PruningEngine& shard = *shards_[engine_->shard_of(id)];
  if (!shard.contains(id)) return false;
  shard.unregister_subscription(id);
  return true;
}

bool ShardedPruningSet::tracks(SubscriptionId id) const {
  return shards_[engine_->shard_of(id)]->contains(id);
}

std::optional<std::pair<std::size_t, std::size_t>> ShardedPruningSet::accounting(
    SubscriptionId id) const {
  return shards_[engine_->shard_of(id)]->accounting(id);
}

void ShardedPruningSet::restore_accounting(SubscriptionId id, std::size_t capacity,
                                           std::size_t performed) {
  shards_[engine_->shard_of(id)]->restore_accounting(id, capacity, performed);
}

std::size_t ShardedPruningSet::subscription_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->subscription_count();
  return total;
}

void ShardedPruningSet::clear_histories() {
  for (const auto& shard : shards_) shard->clear_history();
}

std::size_t ShardedPruningSet::prune(std::size_t k) {
  clear_histories();
  std::size_t done = 0;
  while (done < k) {
    PruningEngine* best = nullptr;
    double best_rating = 0.0;
    for (const auto& shard : shards_) {
      const auto rating = shard->next_primary_rating();
      if (rating.has_value() && (best == nullptr || *rating < best_rating)) {
        best = shard.get();
        best_rating = *rating;
      }
    }
    if (best == nullptr || !best->prune_one()) break;
    ++done;
  }
  return done;
}

std::size_t ShardedPruningSet::prune_to_fraction(double fraction) {
  clear_histories();
  std::size_t done = 0;
  for (const auto& shard : shards_) {
    const auto target = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(shard->total_possible())));
    if (target > shard->performed()) {
      done += shard->prune(target - shard->performed());
    }
  }
  return done;
}

std::size_t ShardedPruningSet::total_possible() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->total_possible();
  return total;
}

std::size_t ShardedPruningSet::performed() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->performed();
  return total;
}

void ShardedPruningSet::set_drift_threshold(std::size_t mutations) {
  for (const auto& shard : shards_) shard->set_drift_threshold(mutations);
}

bool ShardedPruningSet::drift_pending() const {
  for (const auto& shard : shards_) {
    if (shard->drift_pending()) return true;
  }
  return false;
}

void ShardedPruningSet::rescore_all() {
  for (const auto& shard : shards_) shard->rescore_all();
}

PruningEngine::MaintenanceCounters ShardedPruningSet::maintenance() const {
  PruningEngine::MaintenanceCounters total;
  for (const auto& shard : shards_) {
    const auto& m = shard->maintenance();
    total.admissions += m.admissions;
    total.releases += m.releases;
    total.queue_compactions += m.queue_compactions;
    total.full_rescores += m.full_rescores;
  }
  return total;
}

}  // namespace dbsp
