// Throughput-vs-shards sweep of the sharded matching engine: the same
// 10k-subscription auction workload matched through match_batch() at 1, 2,
// 4, and 8 shards. items_per_second is events/sec, so the JSON rows in
// BENCH_micro.json directly expose the parallel speedup (wall-clock; the
// sweep only scales on multi-core hosts — see the host.num_cpus field).
// BM_ShardedMatchSingle sweeps population x shards for single events, and
// BM_ShardedFanOutCrossover times the two ways of running 4 shards on one
// event — the measurement behind ShardedEngine::kFanOutSubscriptionsPerShard.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "core/sharded_engine.hpp"
#include "workload/event_gen.hpp"
#include "workload/subscription_gen.hpp"

namespace {

using namespace dbsp;

struct Fixture {
  WorkloadConfig cfg;
  std::unique_ptr<AuctionDomain> domain;
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<Event> events;

  Fixture(std::size_t n_subs, std::size_t n_events) {
    cfg.seed = 7;
    domain = std::make_unique<AuctionDomain>(cfg);
    AuctionSubscriptionGenerator sub_gen(*domain, 1);
    for (std::uint32_t i = 0; i < n_subs; ++i) {
      subs.push_back(
          std::make_unique<Subscription>(SubscriptionId(i), sub_gen.next_tree()));
    }
    AuctionEventGenerator event_gen(*domain, 2);
    events = event_gen.generate(n_events);
  }
};

// One iteration = one batched dispatch of 256 events across the shards.
void BM_ShardedMatchBatch(benchmark::State& state) {
  Fixture fx(/*n_subs=*/10000, /*n_events=*/256);
  ShardedEngineOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  ShardedEngine engine(fx.domain->schema(), options);
  for (auto& s : fx.subs) engine.add(*s);

  std::vector<std::vector<SubscriptionId>> results;
  for (auto _ : state) {
    engine.match_batch(fx.events, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.events.size()));
  state.counters["shards"] = static_cast<double>(engine.shard_count());
}
// UseRealTime: throughput must be wall-clock — the default CPU-time basis
// only counts the calling thread and would overstate multi-shard numbers.
BENCHMARK(BM_ShardedMatchBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

// The unbatched entry point (one event per call), what every PubSub::publish
// pays. Swept over population x shards: from
// ShardedEngine::kFanOutSubscriptionsPerShard subscriptions per shard on,
// match() fans the shards out on the engine's pool (shard 0 on the calling
// thread); below it every shard runs on the caller. Comparing the 1- and
// 4-shard rows of one population shows what the fan-out saves (or what
// sharding costs where it stays inline).
void BM_ShardedMatchSingle(benchmark::State& state) {
  Fixture fx(/*n_subs=*/static_cast<std::size_t>(state.range(0)), /*n_events=*/256);
  ShardedEngineOptions options;
  options.shards = static_cast<std::size_t>(state.range(1));
  ShardedEngine engine(fx.domain->schema(), options);
  for (auto& s : fx.subs) engine.add(*s);

  std::vector<SubscriptionId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    engine.match(fx.events[i++ % fx.events.size()], out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["subs_per_shard"] =
      static_cast<double>(fx.subs.size()) / static_cast<double>(engine.shard_count());
}
BENCHMARK(BM_ShardedMatchSingle)
    ->ArgNames({"subs", "shards"})
    ->ArgsProduct({{1000, 4000, 10000, 30000}, {1, 4}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// One event against 4 shards of range(0) subscriptions each, run both ways
// regardless of kFanOutSubscriptionsPerShard: range(1) == 0 matches the
// shards in turn on the calling thread (4 one-shard engines, each holding
// the subscriptions the 4-shard engine routes to that shard); range(1) == 1
// fans them out (a one-event match_batch, which always uses the pool). The
// population where the fan-out rows drop below the inline rows is the
// crossover the threshold is set from.
void BM_ShardedFanOutCrossover(benchmark::State& state) {
  constexpr std::size_t kShards = 4;
  const auto per_shard = static_cast<std::size_t>(state.range(0));
  const bool fan_out = state.range(1) != 0;
  Fixture fx(/*n_subs=*/per_shard * kShards, /*n_events=*/256);
  ShardedEngine sharded(fx.domain->schema(), {.shards = kShards});
  std::vector<std::unique_ptr<ShardedEngine>> parts;
  for (std::size_t s = 0; s < kShards; ++s) {
    parts.push_back(std::make_unique<ShardedEngine>(fx.domain->schema(),
                                                    ShardedEngineOptions{}));
  }
  for (auto& s : fx.subs) {
    sharded.add(*s);
    parts[sharded.shard_of(s->id())]->add(*s);
  }

  std::vector<SubscriptionId> out;
  std::vector<std::vector<SubscriptionId>> rows;
  std::size_t i = 0;
  for (auto _ : state) {
    const Event& event = fx.events[i++ % fx.events.size()];
    if (fan_out) {
      sharded.match_batch(std::span<const Event>(&event, 1), rows);
      benchmark::DoNotOptimize(rows.data());
    } else {
      out.clear();
      for (auto& part : parts) part->match(event, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedFanOutCrossover)
    ->ArgNames({"subs_per_shard", "fan_out"})
    ->ArgsProduct({{64, 128, 192, 256, 384, 512, 768}, {0, 1}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
