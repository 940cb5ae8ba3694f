// The traced run: the same set-up as the end-to-end run, then a replay of
// a fixed event prefix. Each event is published through DbspClient::publish
// (net), timed from outside with the steady clock, under a head-sampled
// trace context. The server's own flight recorder then holds, for that
// very call, the facade's trace entry (api: PubSub::publish from the
// server's io thread), its "match" span (core: ShardedEngine::match) and
// its "shard_match" spans (filter: CountingMatcher::match on each shard).
// Every inner layer is thereby nested in the call that times its outer
// one. Timing each layer on its own copy of the trees instead does not
// work: copies of the same trees differ by several percent in speed
// through memory placement alone, more than some layers' self time. The
// recorder's spans have whole-microsecond resolution; their percentiles
// interpolate within the microsecond.
//
// Every replayed publish is head-sampled, and the server records one ring
// entry per sampled notification beside the facade's entry, so dbspd's
// 256-entry ring would lose the facade entry of exactly the events with
// the most fan-out. The traced system's ring therefore holds more entries
// than the whole population could notify for one event, and the replay
// waits for each publish's notifications before it reads the ring; an
// event whose entry is still missing fails the run (trace_gaps).
//
// Two facade twins, built with dbspd's options from the server's current
// trees (read back through NetServer::pubsub(), so pruned trees stay
// pruned), price the obs layer: PubSub::publish as shipped against one with
// metrics and tracing off, in alternating order. The twins are built in
// input order, so their work counters repeat exactly for a seed and
// prefix. Store, pruning and training costs come from a side pair of
// PubSubs (one durable, one in memory).

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "loadgen.hpp"
#include "subscription/parser.hpp"

namespace perfbench {

namespace {

/// One timed interval of the replay, written to the spans file at exit.
/// `source` says who timed it: the generator ("outside") or the server's
/// flight recorder ("recorder", microsecond resolution, placed on the
/// generator's clock through the entry's wall-clock start).
struct Span {
  std::uint32_t event = 0;
  const char* layer = "";
  const char* parent = "";
  std::uint32_t shard = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  const char* source = "outside";
};

/// A facade twin; its callbacks count, so dispatch does real work.
struct Twin {
  Twin(const dbsp::Schema& schema, const dbsp::PubSubOptions& options)
      : pubsub(schema, options) {}
  Twin(const Twin&) = delete;
  Twin& operator=(const Twin&) = delete;

  /// Subscribes every tree from a fresh thread, like the server's io thread.
  void load(const std::vector<std::unique_ptr<dbsp::Node>>& trees) {
    std::string error;
    std::thread([&] {
      for (const auto& tree : trees) {
        auto h = pubsub.subscribe(tree->clone(),
                                  [this](const dbsp::Notification&) { ++delivered; });
        if (!h.ok()) {
          error = h.status().to_string();
          return;
        }
        handles.push_back(std::move(h).value());
      }
    }).join();
    if (!error.empty()) throw std::runtime_error("twin subscribe: " + error);
  }

  dbsp::PubSub pubsub;
  std::vector<dbsp::SubscriptionHandle> handles;
  std::uint64_t delivered = 0;
};

/// The system's current (possibly pruned) trees, in input order: the
/// never-churned population, then the churn connection's. Server ids
/// depend on how the connections' subscribes interleaved, and each shard's
/// predicate index (so predicate hits per event) on which ids it holds;
/// input order keeps the twins, and their work counts, the same every run.
std::vector<std::unique_ptr<dbsp::Node>> current_trees(const Sut& sut) {
  std::vector<std::uint64_t> ids = sut.stable_ids;
  ids.insert(ids.end(), sut.churn_ids.begin(), sut.churn_ids.end());
  dbsp::PubSub& system = sut.pubsub();
  std::vector<std::unique_ptr<dbsp::Node>> trees;
  for (const std::uint64_t raw : ids) {
    const dbsp::SubscriptionId id(static_cast<dbsp::SubscriptionId::value_type>(raw));
    auto text = system.subscription_text(id);
    if (!text.ok()) throw std::runtime_error("subscription_text: " + text.status().to_string());
    trees.push_back(dbsp::parse_subscription(text.value(), system.schema()));
  }
  return trees;
}

/// The server's recorded spans of one publish, in microseconds.
struct InnerSpans {
  bool found = false;
  std::uint64_t start_unix_us = 0;  ///< facade entry's wall clock
  double facade_us = 0;
  double match_us = 0;
  std::uint64_t match_start_us = 0;                      ///< from the entry start
  std::vector<std::pair<std::uint64_t, double>> shards;  ///< (start, duration)
};

/// The facade entry of `trace_id` in `recorder` (the one with a match span).
InnerSpans find_inner(dbsp::obs::FlightRecorder& recorder, std::uint64_t trace_id) {
  InnerSpans s;
  for (const dbsp::obs::Trace& t : recorder.snapshot()) {
    if (t.trace_id != trace_id) continue;
    for (const dbsp::obs::TraceSpan& sp : t.spans) {
      if (sp.stage == dbsp::obs::TraceStage::kMatch) {
        s.found = true;
        s.match_us = static_cast<double>(sp.duration_us);
        s.match_start_us = sp.start_us;
      } else if (sp.stage == dbsp::obs::TraceStage::kShardMatch) {
        s.shards.emplace_back(sp.start_us, static_cast<double>(sp.duration_us));
      }
    }
    if (s.found) {
      s.facade_us = static_cast<double>(t.duration_us);
      s.start_unix_us = t.start_unix_us;
      return s;
    }
    s.shards.clear();
  }
  return s;
}

template <class Fn>
std::uint64_t timed(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

/// Store, API-write, pruning and training costs on a side pair of PubSubs
/// built with dbspd's options and pruning on: one durable, one in memory,
/// fed the same trees in alternating order.
void side_pair(const WorkloadSpec& spec, const Inputs& inputs, const RunOptions& options,
               RunResult& r) {
  const dbsp::Schema& schema = inputs.domain->schema();
  const dbsp::PubSubOptions pso = daemon_pubsub_options(/*pruning=*/true);
  const std::string dir = options.tmp_dir + "/side-store";
  std::filesystem::remove_all(dir);
  dbsp::StoreOptions store;
  store.directory = dir;
  store.schema = schema;
  auto opened = dbsp::PubSub::open(std::move(store), pso);
  if (!opened.ok()) throw std::runtime_error("side store: " + opened.status().to_string());
  dbsp::PubSub durable = std::move(opened).value();
  dbsp::PubSub memory(schema, pso);

  bool trained = false;
  const double train_ns =
      static_cast<double>(timed([&] { trained = memory.train(inputs.training).ok(); }));
  if (!trained || !durable.train(inputs.training).ok()) ++r.failures.verb_errors;

  const std::size_t n = spec.side_trees;
  std::vector<dbsp::SubscriptionHandle> hm(n);
  std::vector<dbsp::SubscriptionHandle> hd(n);
  std::vector<double> sub_ns, sub_self_ns, unsub_ns;
  // WAL bytes per durable op. An op that triggered a snapshot starts a
  // fresh WAL writer, whose byte counter restarts, so it is left out.
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_ops = 0;
  // Times one op on each side, in alternating order; returns the in-memory
  // time and the durable side's extra time.
  const auto pair = [&](std::size_t j, auto&& on_memory, auto&& on_durable) {
    const auto before = durable.store_stats();
    std::uint64_t tm = 0;
    std::uint64_t td = 0;
    if (j % 2 == 0) {
      tm = timed(on_memory);
      td = timed(on_durable);
    } else {
      td = timed(on_durable);
      tm = timed(on_memory);
    }
    const auto after = durable.store_stats();
    if (after.snapshots_written == before.snapshots_written &&
        after.wal_bytes >= before.wal_bytes) {
      wal_bytes += after.wal_bytes - before.wal_bytes;
      ++wal_ops;
    }
    return std::pair{static_cast<double>(tm), static_cast<double>(td) - static_cast<double>(tm)};
  };
  const auto s0 = durable.store_stats();
  const auto m0 = memory.pruning_stats().maintenance;
  for (std::size_t j = 0; j < n; ++j) {
    const dbsp::Node& tree = *inputs.stable[j];
    const auto subscribe = [&](dbsp::PubSub& target, dbsp::SubscriptionHandle& handle) {
      auto h = target.subscribe(tree.clone());
      if (h.ok()) handle = std::move(h).value();
    };
    const auto [memory_ns, self_ns] =
        pair(j, [&] { subscribe(memory, hm[j]); }, [&] { subscribe(durable, hd[j]); });
    sub_ns.push_back(memory_ns);
    sub_self_ns.push_back(self_ns);
    if (!hm[j].attached() || !hd[j].attached()) ++r.failures.verb_errors;
  }

  const std::size_t assoc0 = memory.association_count();
  const std::size_t performed0 = memory.pruning_stats().performed;
  bool pruned = true;
  const double prune_ns = static_cast<double>(
      timed([&] { pruned = memory.prune_to_fraction(0.5).ok(); }));
  if (!pruned || !durable.prune_to_fraction(0.5).ok()) ++r.failures.verb_errors;
  const std::size_t assoc1 = memory.association_count();
  const std::size_t performed = memory.pruning_stats().performed - performed0;

  for (std::size_t j = 0; j < n; ++j) {
    bool ok = true;
    unsub_ns.push_back(
        pair(j, [&] { ok = hm[j].release().ok() && ok; }, [&] { ok = hd[j].release().ok() && ok; })
            .first);
    if (!ok) ++r.failures.verb_errors;
  }
  const auto s1 = durable.store_stats();
  const auto m1 = memory.pruning_stats().maintenance;
  r.attempted += 4 * n + 2;

  const double ops = static_cast<double>(2 * n);
  MetricList& m = r.metrics;
  m.add_us("api.subscribe_us_p50", sub_ns, 0.5);
  m.add_us("api.unsubscribe_us_p50", unsub_ns, 0.5);
  m.add_us("store.self_us_p50", sub_self_ns, 0.5);
  m.add("store.wal_bytes_per_op",
        wal_ops == 0 ? 0.0 : static_cast<double>(wal_bytes) / static_cast<double>(wal_ops),
        "bytes", wal_ops);
  m.add("store.snapshots", static_cast<double>(s1.snapshots_written - s0.snapshots_written),
        "count");
  m.add("prune.us_per_pruning",
        performed == 0 ? 0.0 : prune_ns / 1000.0 / static_cast<double>(performed), "us",
        performed);
  m.add("prune.associations_removed_share",
        assoc0 == 0 ? 0.0
                    : static_cast<double>(assoc0 - assoc1) / static_cast<double>(assoc0),
        "ratio", assoc0);
  m.add("prune.queue_compactions_per_op",
        static_cast<double>(m1.queue_compactions - m0.queue_compactions) / ops, "count", 2 * n);
  m.add("prune.full_rescores_per_op",
        static_cast<double>(m1.full_rescores - m0.full_rescores) / ops, "count", 2 * n);
  m.add("selectivity.train_s", train_ns / 1e9, "s", inputs.training.size());
  std::filesystem::remove_all(dir);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "event,layer,parent,shard,start_ns,end_ns,source\n";
  for (const Span& s : spans) {
    out << s.event << ',' << s.layer << ',' << s.parent << ',' << s.shard << ',' << s.start_ns
        << ',' << s.end_ns << ',' << s.source << '\n';
  }
}

}  // namespace

RunResult run_traced(const WorkloadSpec& spec, const Inputs& inputs, const RunOptions& options) {
  RunResult result;
  const std::size_t ring = std::bit_ceil(spec.subscriptions + spec.churn_population + 64);
  std::unique_ptr<Sut> sut = set_up(spec, inputs, options.tmp_dir + "/store", ring);
  dbsp::PubSub& system = sut->pubsub();
  result.trace_ring = system.trace_recorder()->capacity();
  const dbsp::Schema& schema = inputs.domain->schema();

  dbsp::PubSubOptions off = daemon_pubsub_options(spec.pruning);
  off.metrics = false;
  off.tracing = false;
  Twin twin_on(schema, daemon_pubsub_options(spec.pruning));
  Twin twin_off(schema, off);
  {
    const auto trees = current_trees(*sut);
    twin_on.load(trees);
    twin_off.load(trees);
  }

  // Receivers: every subscriber connection, plus the churn connection
  // (idle here, but its subscriptions still receive notifications).
  DeliveryBook book;
  std::vector<Receiver> receivers(spec.subscriber_conns + (spec.churn ? 1 : 0));
  std::atomic<bool> rx_stop{false};
  std::vector<std::thread> rx_threads;
  for (std::size_t c = 0; c < spec.subscriber_conns; ++c) {
    rx_threads.emplace_back(receive_loop, std::ref(sut->subscribers[c]), std::ref(book),
                            std::ref(receivers[c]), spec.oracle_every, std::cref(rx_stop));
  }
  if (spec.churn) {
    rx_threads.emplace_back(receive_loop, std::ref(*sut->churner), std::ref(book),
                            std::ref(receivers.back()), std::size_t{0}, std::cref(rx_stop));
  }

  const std::size_t n = spec.trace_events;
  const std::size_t shards = system.shard_count();
  const dbsp::CountingMatcher::Counters work0 = twin_on.pubsub.counters();
  const dbsp::net::NetStats before = sut->server->stats();
  dbsp::obs::FlightRecorder& recorder = *system.trace_recorder();
  dbsp::net::DbspClient& client = *sut->publisher;

  std::vector<Span> spans;
  spans.reserve(n * (shards + 5));
  std::vector<double> net_ns(n), on_ns(n), off_ns(n);
  std::vector<double> filter_us, core_us, core_self_us, api_us, api_self_us, skew, net_self_ns;
  double shard_total_us = 0;
  double shard_increments = 0;  ///< the system's own, over the same events
  std::vector<OracleSample> samples;
  for (std::uint32_t i = 0; i < n; ++i) {
    const dbsp::Event& event = inputs.events[i % inputs.events.size()];
    std::size_t on_matches = 0;
    std::size_t off_matches = 0;
    const auto twin = [&](Twin& t, const char* layer, std::size_t& matches, double& ns) {
      const std::uint64_t t0 = now_ns();
      matches = t.pubsub.publish(event);
      spans.push_back({i, layer, "", 0, t0, now_ns()});
      ns = static_cast<double>(spans.back().end_ns - t0);
    };
    if (i % 2 == 0) {
      twin(twin_on, "obs_on", on_matches, on_ns[i]);
      twin(twin_off, "obs_off", off_matches, off_ns[i]);
    } else {
      twin(twin_off, "obs_off", off_matches, off_ns[i]);
      twin(twin_on, "obs_on", on_matches, on_ns[i]);
    }

    const std::uint64_t sent_unix_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    const std::uint64_t increments0 = system.counters().counter_increments;
    const std::uint64_t sent = now_ns();
    dbsp::obs::TraceContext context;
    context.trace_id = book.begin(i, sent);
    context.sampled = true;
    auto matched = client.publish(event, context);
    spans.push_back({i, "net", "", 0, sent, now_ns()});
    net_ns[i] = static_cast<double>(spans.back().end_ns - sent);
    book.complete(i, matched.ok() ? matched.value() : 0);
    book.await(i, now_ns() + 10'000'000'000ULL);
    const std::uint64_t increments1 = system.counters().counter_increments;
    if (!matched.ok()) ++result.failures.verb_errors;
    if (i % spec.oracle_every == 0) samples.push_back({context.trace_id, &event});
    if (on_matches != off_matches || !matched.ok() || matched.value() != on_matches) {
      ++result.failures.layer_mismatches;
    }

    // The server recorded the facade's entry before it replied.
    const InnerSpans s = find_inner(recorder, context.trace_id);
    if (!s.found || s.shards.size() != shards) {
      ++result.failures.trace_gaps;
      continue;
    }
    const std::uint64_t base =
        sent + (s.start_unix_us > sent_unix_us ? (s.start_unix_us - sent_unix_us) * 1000 : 0);
    const auto recorded = [&](const char* layer, const char* parent, std::uint32_t shard,
                              std::uint64_t start_us, double us) {
      const std::uint64_t start = base + start_us * 1000;
      spans.push_back({i, layer, parent, shard, start,
                       start + static_cast<std::uint64_t>(us * 1000), "recorder"});
    };
    double sum = 0;
    double max_shard = 0;
    for (std::uint32_t k = 0; k < s.shards.size(); ++k) {
      const auto [start_us, us] = s.shards[k];
      filter_us.push_back(us);
      sum += us;
      max_shard = std::max(max_shard, us);
      recorded("filter", "core", k, start_us, us);
    }
    recorded("core", "api", 0, s.match_start_us, s.match_us);
    recorded("api", "net", 0, 0, s.facade_us);
    shard_total_us += sum;
    shard_increments += static_cast<double>(increments1 - increments0);
    core_us.push_back(s.match_us);
    core_self_us.push_back(s.match_us - sum);
    api_us.push_back(s.facade_us);
    api_self_us.push_back(s.facade_us - s.match_us);
    if (sum > 0) skew.push_back(max_shard * static_cast<double>(shards) / sum);
    net_self_ns.push_back(net_ns[i] - s.facade_us * 1000.0);
  }
  const dbsp::net::NetStats after = sut->server->stats();
  const dbsp::CountingMatcher::Counters work1 = twin_on.pubsub.counters();

  // Batched matching: PubSub::publish_batch on the metrics-off twin runs
  // ShardedEngine::match_batch, 256 events per batch.
  constexpr std::size_t kBatch = 256;
  const std::size_t batches = std::max<std::size_t>(1, n / kBatch);
  std::vector<dbsp::Event> batch(kBatch);
  double batch_ns = 0;
  for (std::size_t k = 0; k < batches; ++k) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      batch[j] = inputs.events[(k * kBatch + j) % inputs.events.size()];
    }
    batch_ns += static_cast<double>(timed([&] { (void)twin_off.pubsub.publish_batch(batch); }));
  }

  Histogram ping;
  for (std::uint64_t t = 1; t <= 1000; ++t) {
    const std::uint64_t t0 = now_ns();
    auto echoed = client.ping(t);
    ping.record(now_ns() - t0);
    if (!echoed.ok() || echoed.value() != t) ++result.failures.verb_errors;
  }

  book.finish(now_ns() + 10'000'000'000ULL);
  rx_stop.store(true, std::memory_order_release);
  for (std::thread& t : rx_threads) t.join();

  std::vector<Delivery> deliveries;
  Histogram lag;
  for (std::size_t c = 0; c < spec.subscriber_conns; ++c) {
    deliveries.insert(deliveries.end(), receivers[c].sampled.begin(), receivers[c].sampled.end());
    lag.merge(receivers[c].lag);
  }
  for (const Receiver& rx : receivers) result.failures.verb_errors += rx.errors;
  const OracleResult oracle = check_deliveries(samples, deliveries, stable_population(*sut, inputs),
                                               spec.pruning, 4);
  result.failures.oracle_mismatches = oracle.mismatches;
  result.failures.lost_notifications = book.lost.load();
  result.failures.stale_notifications = book.stale.load();
  result.failures.protocol_errors = after.protocol_errors - before.protocol_errors;
  result.failures.slow_consumer_disconnects =
      after.slow_consumer_disconnects - before.slow_consumer_disconnects;
  result.attempted = n + 1000;

  std::vector<double> obs_overhead(n);
  for (std::size_t i = 0; i < n; ++i) obs_overhead[i] = on_ns[i] - off_ns[i];
  const double events = static_cast<double>(n);
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const double evaluations = delta(work0.tree_evaluations, work1.tree_evaluations);
  const double increments = delta(work0.counter_increments, work1.counter_increments);
  MetricList& m = result.metrics;
  m.add_span_us("filter.match_us_p50", filter_us, 0.5);
  m.add("filter.counter_increments_per_event", increments / events, "count", n);
  m.add("filter.predicate_hits_per_event",
        delta(work0.predicate_hits, work1.predicate_hits) / events, "count", n);
  m.add("filter.tree_evaluations_per_event", evaluations / events, "count", n);
  m.add("filter.matches_per_event", delta(work0.matches, work1.matches) / events, "count", n);
  m.add("filter.match_yield",
        evaluations == 0 ? 0.0 : delta(work0.matches, work1.matches) / evaluations, "ratio",
        work1.tree_evaluations - work0.tree_evaluations);
  m.add("filter.ns_per_increment",
        shard_increments == 0 ? 0.0 : shard_total_us * 1000.0 / shard_increments, "ns",
        static_cast<std::uint64_t>(shard_increments));
  m.add("filter.associations", static_cast<double>(system.association_count()), "count");
  m.add_span_us("core.match_us_p50", core_us, 0.5);
  m.add_span_us("core.match_us_p99", core_us, 0.99);
  m.add_span_us("core.self_us_p50", core_self_us, 0.5);
  m.add("core.shard_skew", percentile(skew, 0.5), "ratio", skew.size());
  m.add("core.batch_us_per_event",
        batch_ns / 1000.0 / static_cast<double>(batches * kBatch), "us", batches * kBatch);
  m.add_span_us("api.publish_us_p50", api_us, 0.5);
  m.add_span_us("api.publish_us_p99", api_us, 0.99);
  m.add_span_us("api.self_us_p50", api_self_us, 0.5);
  m.add_us("obs.overhead_us_p50", obs_overhead, 0.5);
  m.add_us("net.client_publish_us_p50", net_ns, 0.5);
  m.add_us("net.ping_us_p50", ping, 0.5);
  m.add_us("net.self_us_p50", net_self_ns, 0.5);
  m.add_us("net.self_us_p99", net_self_ns, 0.99);
  m.add_us("net.notify_lag_us_p50", lag, 0.5);
  m.add("net.bytes_out_per_event", delta(before.bytes_sent, after.bytes_sent) / events, "bytes",
        n);
  m.add("net.frames_out_per_event", delta(before.frames_sent, after.frames_sent) / events,
        "count", n);
  m.add("net.write_queue_high_water_bytes", static_cast<double>(after.write_queue_high_water),
        "bytes");
  m.add("net.slow_consumer_disconnects",
        delta(before.slow_consumer_disconnects, after.slow_consumer_disconnects), "count");
  m.add("prune.false_positive_share", oracle.false_positive_share(), "ratio", oracle.delivered);
  side_pair(spec, inputs, options, result);

  result.load = {{"trace_events", events},
                 {"shards", static_cast<double>(shards)},
                 {"subscriptions", static_cast<double>(twin_on.handles.size())},
                 {"oracle_checked", static_cast<double>(oracle.checked)},
                 {"side_trees", static_cast<double>(spec.side_trees)}};
  write_spans(options.spans_path, spans);
  return result;
}

}  // namespace perfbench
