// The end-to-end run: several set-up instances, each with a closed-loop
// window of publishes and subscribe/unsubscribe churn, then the delivery
// oracle. No per-layer timers run here.
//
// Every instance's window is cut into equal time slices. On the churn mix
// the churn connection runs beside the publisher through every slice; on
// the other mixes each slice ends with a quiet churn phase (round trips on
// the churn connection while no publish is in flight), so publishes and
// churn see the same stretches of host time either way.
//
// The hosts this runs on swing by 20% and more in speed over seconds,
// because other tenants share the cores and the memory system. Per
// instance, the slices are ranked by combined throughput (publishes and
// churn ops per second, each as a share of the instance's whole-window
// rate) and the headline metrics all come from the faster half: the same
// slices for every metric, so a slice where churn won the facade lock and
// publishes lost it is kept or dropped as a whole. The whole-window rates
// are reported beside them (publish_eps_window, churn_ops_per_s_window),
// and run.py compare calls a change worse when publish_eps_window regresses
// beyond the bound, so a stall the system causes in half of a window
// still shows.

#include <algorithm>
#include <thread>

#include "loadgen.hpp"

namespace perfbench {

namespace {

/// Slices per instance window.
constexpr std::size_t kSlices = 8;
/// Without concurrent churn, the share of every slice given to quiet churn.
constexpr double kQuietChurnShare = 0.3;

/// One slice of one instance's window, all connections merged.
struct Slice {
  double publish_s = 0;  ///< time the publisher was publishing
  double churn_s = 0;    ///< time the churn connection was churning
  std::uint64_t published = 0;
  std::uint64_t notifications = 0;
  std::uint64_t churn_ops = 0;
  Histogram publish;
  Histogram delivery;
  Histogram subscribe;

  void merge(const Slice& o) {
    publish_s += o.publish_s;
    churn_s += o.churn_s;
    published += o.published;
    notifications += o.notifications;
    churn_ops += o.churn_ops;
    publish.merge(o.publish);
    delivery.merge(o.delivery);
    subscribe.merge(o.subscribe);
  }
};

double rate(std::uint64_t n, double seconds) {
  return seconds > 0 ? static_cast<double>(n) / seconds : 0.0;
}

/// The closed-loop publisher's state across the slices of one window.
struct Publisher {
  std::uint64_t next = 0;
  std::uint64_t errors = 0;
  std::vector<OracleSample> samples;
};

/// Publishes until `end_ns` (the last one may end after it), recording
/// each round trip in `slice`. False when the connection is gone.
bool publish_until(std::uint64_t end_ns, const WorkloadSpec& spec, const Inputs& inputs,
                   dbsp::net::DbspClient& client, dbsp::obs::FlightRecorder* sampler,
                   DeliveryBook& book, Publisher& pub, Slice& slice) {
  while (now_ns() < end_ns) {
    const std::uint64_t k = pub.next++;
    const dbsp::Event& event = inputs.events[k % inputs.events.size()];
    const std::uint64_t sent = now_ns();
    dbsp::obs::TraceContext context;
    context.trace_id = book.begin(k, sent);
    // The server's own head sampler decides, exactly as for a client that
    // sends no context.
    context.sampled = sampler != nullptr && sampler->should_sample();
    auto matched = client.publish(event, context);
    slice.publish.record(now_ns() - sent);
    ++slice.published;
    book.complete(k, matched.ok() ? matched.value() : 0);
    if (k % spec.oracle_every == 0) pub.samples.push_back({context.trace_id, &event});
    if (!matched.ok()) {
      ++pub.errors;
      if (!client.connected()) return false;
    }
  }
  return true;
}

/// Subscribe/unsubscribe round trips until `end_ns` on a system with no
/// publish in flight, recorded in `slice`. False when the connection is gone.
bool quiet_churn_until(std::uint64_t end_ns, const Inputs& inputs, Sut& sut, Slice& slice,
                       std::uint64_t& errors) {
  dbsp::net::DbspClient& client = *sut.churner;
  while (now_ns() < end_ns) {
    const std::uint64_t t0 = now_ns();
    auto id = client.subscribe(*inputs.arrivals[sut.next_arrival++ % inputs.arrivals.size()]);
    const std::uint64_t t1 = now_ns();
    slice.subscribe.record(t1 - t0);
    ++slice.churn_ops;
    if (!id.ok()) {
      ++errors;
      if (!client.connected()) return false;
      continue;
    }
    if (!client.unsubscribe(id.value()).ok()) ++errors;
    ++slice.churn_ops;
  }
  return client.connected();
}

/// Subscribes and unsubscribes counted per slice of completion.
struct ChurnTally {
  explicit ChurnTally(std::size_t slices) : subscribe(slices), ops(slices, 0) {}
  SlicedTally subscribe;
  std::vector<std::uint64_t> ops;
  std::uint64_t errors = 0;
};

/// Churn at a steady population beside the publisher: unsubscribe the
/// oldest, subscribe the next arrival, alternately; prune_to_fraction(0.5)
/// every K ops.
void churn_loop(const WorkloadSpec& spec, const Inputs& inputs, Sut& sut, DeliveryBook& book,
                const Slicer& slicer, Receiver& rx, ChurnTally& out,
                const std::atomic<bool>& stop) {
  dbsp::net::DbspClient& client = *sut.churner;
  for (std::uint64_t op = 1; !stop.load(std::memory_order_acquire); ++op) {
    const std::uint64_t t0 = now_ns();
    if (sut.churn_ids.size() >= spec.churn_population) {
      const dbsp::Status st = client.unsubscribe(sut.churn_ids.front());
      sut.churn_ids.pop_front();
      if (!st.ok()) ++out.errors;
    } else {
      const dbsp::Node& tree = *inputs.arrivals[sut.next_arrival++ % inputs.arrivals.size()];
      auto id = client.subscribe(tree);
      const std::uint64_t t1 = now_ns();
      out.subscribe.record(slicer.at(t1), t1 - t0);
      if (id.ok()) {
        sut.churn_ids.push_back(id.value());
      } else {
        ++out.errors;
      }
    }
    ++out.ops[slicer.at(now_ns())];
    drain_buffered(client, book, rx);
    if (!client.connected()) break;
    if (op % spec.prune_every_ops == 0 && !sut.pubsub().prune_to_fraction(0.5).ok()) {
      ++out.errors;
    }
  }
}

/// One instance's window, then its oracle check. Returns the window's
/// slices.
std::vector<Slice> measure(const WorkloadSpec& spec, const Inputs& inputs, Sut& sut,
                           double window_s, OracleResult& oracle, Failures& failures,
                           std::uint64_t& attempted) {
  DeliveryBook book;
  Publisher pub;
  ChurnTally churn(kSlices);
  std::uint64_t quiet_errors = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> rx_stop{false};
  dbsp::obs::FlightRecorder* sampler = sut.pubsub().trace_recorder().get();
  const dbsp::net::NetStats before = sut.server->stats();

  const auto total = static_cast<std::uint64_t>(window_s * 1e9);
  const Slicer window{now_ns(), std::max<std::uint64_t>(1, total / kSlices), kSlices};
  std::vector<Receiver> receivers(spec.subscriber_conns, Receiver(window));
  Receiver churn_rx(window);
  std::vector<std::thread> rx_threads;
  for (std::size_t c = 0; c < spec.subscriber_conns; ++c) {
    rx_threads.emplace_back(receive_loop, std::ref(sut.subscribers[c]), std::ref(book),
                            std::ref(receivers[c]), spec.oracle_every, std::cref(rx_stop));
  }
  std::thread churner;
  if (spec.churn) {
    churner = std::thread(
        [&] { churn_loop(spec, inputs, sut, book, window, churn_rx, churn, stop); });
  }

  std::vector<Slice> slices(kSlices);
  const auto publish_ns =
      static_cast<std::uint64_t>(static_cast<double>(window.slice_ns) *
                                 (spec.churn ? 1.0 : 1.0 - kQuietChurnShare));
  for (std::size_t s = 0; s < kSlices; ++s) {
    const std::uint64_t start = window.start_ns + s * window.slice_ns;
    const std::uint64_t t0 = now_ns();
    bool connected = publish_until(start + publish_ns, spec, inputs, *sut.publisher, sampler,
                                   book, pub, slices[s]);
    const std::uint64_t t1 = now_ns();
    slices[s].publish_s = static_cast<double>(t1 - t0) / 1e9;
    if (connected && !spec.churn) {
      connected = quiet_churn_until(start + window.slice_ns, inputs, sut, slices[s],
                                    quiet_errors);
      slices[s].churn_s = static_cast<double>(now_ns() - t1) / 1e9;
    }
    if (!connected) break;
  }
  stop.store(true, std::memory_order_release);
  if (churner.joinable()) churner.join();

  // Every publish has been answered, so a ping returns only after all
  // their notifications reached the churn connection's buffer.
  if (!sut.churner->ping(1).ok()) ++churn.errors;
  drain_buffered(*sut.churner, book, churn_rx);
  book.finish(now_ns() + 10'000'000'000ULL);
  rx_stop.store(true, std::memory_order_release);
  for (std::thread& t : rx_threads) t.join();
  const dbsp::net::NetStats after = sut.server->stats();

  for (std::size_t s = 0; s < kSlices; ++s) {
    Slice& slice = slices[s];
    for (const Receiver& rx : receivers) {
      slice.delivery.merge(rx.delivery.latency[s]);
      slice.notifications += rx.delivery.count[s];
    }
    if (spec.churn) {
      slice.churn_s = static_cast<double>(window.slice_ns) / 1e9;
      slice.subscribe.merge(churn.subscribe.latency[s]);
      slice.churn_ops = churn.ops[s];
    }
    attempted += slice.published + slice.churn_ops;
  }

  // The oracle, outside every timed window.
  std::vector<Delivery> deliveries;
  for (const Receiver& rx : receivers) {
    deliveries.insert(deliveries.end(), rx.sampled.begin(), rx.sampled.end());
    failures.verb_errors += rx.errors;
  }
  failures.verb_errors += pub.errors + churn_rx.errors + churn.errors + quiet_errors;
  const OracleResult o = check_deliveries(pub.samples, deliveries,
                                          stable_population(sut, inputs), spec.pruning, 4);
  oracle.checked += o.checked;
  oracle.mismatches += o.mismatches;
  oracle.delivered += o.delivered;
  oracle.surplus += o.surplus;
  failures.oracle_mismatches += o.mismatches;
  failures.lost_notifications += book.lost.load();
  failures.stale_notifications += book.stale.load();
  failures.protocol_errors += after.protocol_errors - before.protocol_errors;
  failures.slow_consumer_disconnects +=
      after.slow_consumer_disconnects - before.slow_consumer_disconnects;
  return slices;
}

/// Merges the faster half of one instance's slices into `kept`, ranked by
/// publishes and churn ops per second, each as a share of the instance's
/// whole-window rate.
void keep_faster_half(const std::vector<Slice>& slices, Slice& kept) {
  Slice whole;
  for (const Slice& s : slices) whole.merge(s);
  const double publish_rate = rate(whole.published, whole.publish_s);
  const double churn_rate = rate(whole.churn_ops, whole.churn_s);
  const auto score = [&](const Slice& s) {
    return (publish_rate > 0 ? rate(s.published, s.publish_s) / publish_rate : 0.0) +
           (churn_rate > 0 ? rate(s.churn_ops, s.churn_s) / churn_rate : 0.0);
  };
  std::vector<const Slice*> order;
  for (const Slice& s : slices) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(),
                   [&](const Slice* a, const Slice* b) { return score(*a) > score(*b); });
  order.resize((order.size() + 1) / 2);
  for (const Slice* s : order) kept.merge(*s);
}

}  // namespace

RunResult run_e2e(const WorkloadSpec& spec, const Inputs& inputs, const RunOptions& options) {
  // The run is split over `setup_reps` instances, each measured for its
  // share of the window. A fresh instance also lands in different memory
  // and runs a few percent faster or slower than the last.
  const double window_s = options.seconds / static_cast<double>(spec.setup_reps);
  RunResult result;
  std::vector<double> setup_ns;
  Slice kept;
  Slice whole;
  OracleResult oracle;
  for (std::size_t r = 0; r < spec.setup_reps; ++r) {
    const std::uint64_t t0 = now_ns();
    const std::unique_ptr<Sut> sut = set_up(spec, inputs, options.tmp_dir + "/store");
    setup_ns.push_back(static_cast<double>(now_ns() - t0));
    result.trace_ring = sut->pubsub().trace_recorder()->capacity();
    const std::vector<Slice> slices =
        measure(spec, inputs, *sut, window_s, oracle, result.failures, result.attempted);
    keep_faster_half(slices, kept);
    for (const Slice& s : slices) whole.merge(s);
  }

  MetricList& m = result.metrics;
  m.add("setup_s", percentile(setup_ns, 0.5) / 1e9, "s", setup_ns.size());
  m.add("publish_eps", rate(kept.published, kept.publish_s), "1/s", kept.published);
  m.add("publish_eps_window", rate(whole.published, whole.publish_s), "1/s", whole.published);
  m.add_us("publish_us_p50", kept.publish, 0.50);
  m.add_us("publish_us_p99", kept.publish, 0.99);
  m.add_us("delivery_us_p50", kept.delivery, 0.50);
  m.add_us("delivery_us_p99", kept.delivery, 0.99);
  m.add("notify_per_s", rate(kept.notifications, kept.publish_s), "1/s", kept.notifications);
  m.add("churn_ops_per_s", rate(kept.churn_ops, kept.churn_s), "1/s", kept.churn_ops);
  m.add("churn_ops_per_s_window", rate(whole.churn_ops, whole.churn_s), "1/s",
        whole.churn_ops);
  m.add_us("subscribe_us_p50", kept.subscribe, 0.50);
  m.add_us("subscribe_us_p99", kept.subscribe, 0.99);
  m.add("false_positive_share", oracle.false_positive_share(), "ratio", oracle.delivered);
  m.add("error_rate",
        static_cast<double>(result.failures.total()) /
            static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
        "ratio", result.attempted);
  m.add("oracle_checked", static_cast<double>(oracle.checked), "count");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");

  result.load = {{"publishers", 1.0},
                 {"subscriber_connections", static_cast<double>(spec.subscriber_conns)},
                 {"churn_connections", 1.0},
                 {"concurrent_churn", spec.churn ? 1.0 : 0.0},
                 {"quiet_churn_share", spec.churn ? 0.0 : kQuietChurnShare},
                 {"subscriptions", static_cast<double>(inputs.stable.size())},
                 {"churn_population", static_cast<double>(spec.churn_population)},
                 {"instances", static_cast<double>(spec.setup_reps)},
                 {"slices_per_instance", static_cast<double>(kSlices)},
                 {"kept_publish_s", kept.publish_s},
                 {"kept_churn_s", kept.churn_s},
                 {"window_publish_s", whole.publish_s},
                 {"window_churn_s", whole.churn_s}};
  return result;
}

}  // namespace perfbench
