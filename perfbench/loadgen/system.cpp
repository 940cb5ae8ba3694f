// Workload definitions, input generation, and the system under test's
// set-up, plus the delivery bookkeeping shared by both run modes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "loadgen.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTraceTag = 1ULL << 62;

[[noreturn]] void fail(const std::string& what, const dbsp::Status& status) {
  throw std::runtime_error(what + ": " + status.to_string());
}

std::uint64_t wall_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    WorkloadSpec match;
    match.name = "auction-100k-match";
    match.subscriptions = 100000;
    match.subscriber_conns = 2;
    match.setup_reps = 3;
    match.event_pool = 1024;
    match.oracle_every = 8;
    match.trace_events = 160;
    match.side_trees = 1024;
    v.push_back(match);

    WorkloadSpec churn;
    churn.name = "auction-10k-churn-pruned";
    churn.subscriptions = 9000;
    churn.subscriber_conns = 1;
    churn.churn = true;
    churn.churn_population = 1000;
    churn.prune_every_ops = 64;
    churn.pruning = true;
    churn.durable = true;
    churn.setup_reps = 3;
    churn.event_pool = 8192;
    churn.oracle_every = 32;
    churn.trace_events = 2048;
    churn.side_trees = 1024;
    v.push_back(churn);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec scaled(const WorkloadSpec& spec, double scale) {
  const auto s = [scale](std::size_t n) {
    return n == 0 ? 0
                  : std::max<std::size_t>(
                        1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
  };
  WorkloadSpec out = spec;
  out.subscriptions = std::max(out.subscriber_conns, s(spec.subscriptions));
  out.churn_population = s(spec.churn_population);
  out.event_pool = s(spec.event_pool);
  out.trace_events = s(spec.trace_events);
  out.side_trees = std::min(out.subscriptions, s(spec.side_trees));
  return out;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  // The domain's world (attribute pools, popularity skew) stays at its
  // default configuration; the seed picks the stream family. Seeds then
  // draw different subscriptions and events from one distribution, and the
  // work per event moves far less with the seed than re-seeding the world.
  Inputs in;
  in.domain = dbsp::make_auction_workload();
  // Stream k of seed s is 8s + k, following the WorkloadDomain convention:
  // 1 subscriptions, 2 events, 3 training, 4 churn arrivals.
  const auto stream = [seed](std::uint64_t k) { return 8 * seed + k; };
  auto subs = in.domain->subscriptions(stream(1));
  in.stable.reserve(spec.subscriptions);
  for (std::size_t j = 0; j < spec.subscriptions; ++j) in.stable.push_back(subs->next());
  auto arrivals = in.domain->subscriptions(stream(4));
  const std::size_t n_arrivals = spec.churn_population + 2048;
  in.arrivals.reserve(n_arrivals);
  for (std::size_t j = 0; j < n_arrivals; ++j) in.arrivals.push_back(arrivals->next());
  in.events = in.domain->events(stream(2))->generate(spec.event_pool);
  in.training = in.domain->events(stream(3))->generate(2000);
  return in;
}

dbsp::PubSubOptions daemon_pubsub_options(bool pruning) {
  dbsp::PubSubOptions options;
  options.pruning = pruning;
  return options;
}

dbsp::net::NetServerOptions daemon_server_options() {
  dbsp::net::NetServerOptions options = dbsp::net::NetServerOptions::from_env();
  options.port = 0;
  return options;
}

Sut::~Sut() {
  // Kill, not drain: connection handles must not unsubscribe the whole
  // population one by one (and durably) on the way out.
  if (server) server->stop(/*drain=*/false);
  server.reset();
  churner.reset();
  publisher.reset();
  subscribers.clear();
  if (!store_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }
}

dbsp::PubSub& Sut::pubsub() const {
  dbsp::PubSub* p = server ? server->pubsub() : nullptr;
  if (p == nullptr) throw std::runtime_error("system under test is not running");
  return *p;
}

std::unique_ptr<Sut> set_up(const WorkloadSpec& spec, const Inputs& inputs,
                            const std::string& store_dir, std::size_t trace_ring) {
  auto owned = std::make_unique<Sut>();
  Sut& sut = *owned;
  dbsp::PubSubOptions options = daemon_pubsub_options(spec.pruning);
  if (trace_ring != 0) options.trace.capacity = trace_ring;
  std::optional<dbsp::PubSub> pubsub;
  if (spec.durable) {
    sut.store_dir = store_dir;
    std::filesystem::remove_all(store_dir);
    dbsp::StoreOptions store;
    store.directory = store_dir;
    store.schema = inputs.domain->schema();
    auto opened = dbsp::PubSub::open(std::move(store), options);
    if (!opened.ok()) fail("open store", opened.status());
    pubsub.emplace(std::move(opened).value());
  } else {
    pubsub.emplace(inputs.domain->schema(), options);
  }
  auto server = dbsp::net::NetServer::start(std::move(*pubsub), daemon_server_options());
  if (!server.ok()) fail("start server", server.status());
  sut.server = std::move(server).value();

  const auto connect = [&] {
    auto client = dbsp::net::DbspClient::connect("127.0.0.1", sut.server->port());
    if (!client.ok()) fail("connect", client.status());
    return std::move(client).value();
  };
  for (std::size_t c = 0; c < spec.subscriber_conns; ++c) sut.subscribers.push_back(connect());
  sut.publisher.emplace(connect());
  sut.churner.emplace(connect());

  if (spec.pruning) {
    const dbsp::Status trained = sut.pubsub().train(inputs.training);
    if (!trained.ok()) fail("train", trained);
  }

  // Initial subscribes: one thread per connection, closed loop. Tree j
  // goes to subscriber connection j % conns.
  sut.stable_ids.assign(inputs.stable.size(), 0);
  std::vector<std::thread> loaders;
  std::vector<std::string> errors(spec.subscriber_conns + 1);
  for (std::size_t c = 0; c < spec.subscriber_conns; ++c) {
    loaders.emplace_back([&, c] {
      for (std::size_t j = c; j < inputs.stable.size(); j += spec.subscriber_conns) {
        auto id = sut.subscribers[c].subscribe(*inputs.stable[j]);
        if (!id.ok()) {
          errors[c] = id.status().to_string();
          return;
        }
        sut.stable_ids[j] = id.value();
      }
    });
  }
  if (spec.churn) {
    loaders.emplace_back([&] {
      for (std::size_t j = 0; j < spec.churn_population; ++j) {
        auto id = sut.churner->subscribe(*inputs.arrivals[j]);
        if (!id.ok()) {
          errors.back() = id.status().to_string();
          return;
        }
        sut.churn_ids.push_back(id.value());
      }
    });
    sut.next_arrival = spec.churn_population;
  }
  for (std::thread& t : loaders) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("initial subscribe: " + e);
  }

  if (spec.pruning) {
    auto pruned = sut.pubsub().prune_to_fraction(0.5);
    if (!pruned.ok()) fail("initial prune", pruned.status());
  }
  return owned;
}

std::map<std::string, std::uint64_t> Failures::named() const {
  return {{"verb_errors", verb_errors},
          {"protocol_errors", protocol_errors},
          {"slow_consumer_disconnects", slow_consumer_disconnects},
          {"lost_notifications", lost_notifications},
          {"stale_notifications", stale_notifications},
          {"oracle_mismatches", oracle_mismatches},
          {"layer_mismatches", layer_mismatches},
          {"trace_gaps", trace_gaps}};
}

DeliveryBook::DeliveryBook() : ring_(std::make_unique<Slot[]>(kRing)) {}

std::uint64_t DeliveryBook::trace_id(std::uint64_t k) { return kTraceTag | k; }

std::uint64_t DeliveryBook::publish_index(std::uint64_t trace_id) {
  return trace_id & ~kTraceTag;
}

bool DeliveryBook::received_all(const Slot& slot) {
  const std::int64_t matched = slot.matched.load(std::memory_order_acquire);
  return matched >= 0 && slot.received.load(std::memory_order_acquire) >= matched;
}

void DeliveryBook::settle(Slot& slot, std::uint64_t deadline_ns) {
  if (slot.seq.load(std::memory_order_acquire) == ~0ULL) return;
  while (!received_all(slot) && now_ns() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (slot.received.load(std::memory_order_acquire) !=
      slot.matched.load(std::memory_order_acquire)) {
    lost.fetch_add(1, std::memory_order_relaxed);
  }
  slot.seq.store(~0ULL, std::memory_order_release);
}

std::uint64_t DeliveryBook::begin(std::uint64_t k, std::uint64_t send_ns) {
  Slot& slot = ring_[k % kRing];
  if (k >= kRing) settle(slot, now_ns() + 2'000'000'000ULL);
  slot.matched.store(-1, std::memory_order_relaxed);
  slot.received.store(0, std::memory_order_relaxed);
  slot.send_ns.store(send_ns, std::memory_order_relaxed);
  slot.seq.store(k, std::memory_order_release);
  published_ = k + 1;
  return trace_id(k);
}

void DeliveryBook::complete(std::uint64_t k, std::uint64_t matched) {
  ring_[k % kRing].matched.store(static_cast<std::int64_t>(matched), std::memory_order_release);
}

std::optional<std::uint64_t> DeliveryBook::receive(std::uint64_t trace_id, std::uint64_t now) {
  const std::uint64_t k = publish_index(trace_id);
  Slot& slot = ring_[k % kRing];
  if ((trace_id & kTraceTag) == 0 || slot.seq.load(std::memory_order_acquire) != k) {
    stale.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::uint64_t sent = slot.send_ns.load(std::memory_order_relaxed);
  slot.received.fetch_add(1, std::memory_order_acq_rel);
  return now > sent ? now - sent : 0;
}

void DeliveryBook::await(std::uint64_t k, std::uint64_t deadline_ns) const {
  const Slot& slot = ring_[k % kRing];
  while (!received_all(slot) && now_ns() < deadline_ns) std::this_thread::yield();
}

void DeliveryBook::finish(std::uint64_t deadline_ns) {
  for (std::uint64_t k = published_ > kRing ? published_ - kRing : 0; k < published_; ++k) {
    settle(ring_[k % kRing], deadline_ns);
  }
}

namespace {

void account(const dbsp::net::NetNotification& n, DeliveryBook& book, Receiver& out,
             std::size_t oracle_every) {
  const std::uint64_t now = now_ns();
  if (const auto latency = book.receive(n.trace.trace_id, now)) {
    out.delivery.record(out.slicer.at(now), *latency);
  }
  if (n.published_unix_us != 0) {
    const std::uint64_t w = wall_us();
    out.lag.record(w > n.published_unix_us ? (w - n.published_unix_us) * 1000 : 0);
  }
  if (oracle_every != 0 && DeliveryBook::publish_index(n.trace.trace_id) % oracle_every == 0) {
    out.sampled.push_back({n.trace.trace_id, n.subscription});
  }
}

}  // namespace

void receive_loop(dbsp::net::DbspClient& client, DeliveryBook& book, Receiver& out,
                  std::size_t oracle_every, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    auto n = client.next_notification(/*timeout_ms=*/10);
    if (!n.ok()) {
      ++out.errors;
      return;
    }
    if (n.value().has_value()) account(*n.value(), book, out, oracle_every);
  }
}

void drain_buffered(dbsp::net::DbspClient& client, DeliveryBook& book, Receiver& out) {
  while (client.buffered_notifications() > 0) {
    auto n = client.next_notification(0);
    if (!n.ok() || !n.value().has_value()) {
      ++out.errors;
      return;
    }
    account(*n.value(), book, out, /*oracle_every=*/0);
  }
}

std::vector<std::pair<std::uint64_t, const dbsp::Node*>> stable_population(
    const Sut& sut, const Inputs& inputs) {
  std::vector<std::pair<std::uint64_t, const dbsp::Node*>> population;
  population.reserve(inputs.stable.size());
  for (std::size_t j = 0; j < inputs.stable.size(); ++j) {
    population.emplace_back(sut.stable_ids[j], inputs.stable[j].get());
  }
  std::sort(population.begin(), population.end());
  return population;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return std::nan("");
}

}  // namespace perfbench
