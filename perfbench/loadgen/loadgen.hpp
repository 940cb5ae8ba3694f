#pragma once

/// \file
/// The dbsp load generator. It hosts the system under test in-process (a
/// net::NetServer owning a PubSub built with exactly the PubSubOptions the
/// dbspd daemon builds) and drives it only through DbspClients over
/// loopback TCP, closed-loop, one request in flight per connection.
/// Two modes share one set-up:
///   - the end-to-end run (run_e2e) measures what a user of dbspd sees;
///   - the traced run (run_traced) replays a fixed event prefix and times
///     each layer of every publish, nested in the call that times the next.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/pubsub.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "oracle.hpp"
#include "scenario/workload_domain.hpp"
#include "stats.hpp"

namespace perfbench {

/// One traffic mix. Sizes are at scale 1; --scale multiplies populations
/// and prefixes (the benchmark's own tests run at a tiny scale).
struct WorkloadSpec {
  std::string name;                  ///< an auction-domain traffic mix
  std::size_t subscriptions = 0;     ///< never-churned population
  std::size_t subscriber_conns = 1;  ///< connections holding that population
  bool churn = false;                 ///< the churn connection runs beside publishes
  std::size_t churn_population = 0;   ///< churn connection's steady population
  std::size_t prune_every_ops = 0;    ///< churn ops between prune_to_fraction calls
  bool pruning = false;
  bool durable = false;
  std::size_t setup_reps = 1;      ///< set-ups per run; setup_s is their median
  std::size_t event_pool = 0;      ///< pre-generated events, cycled
  std::size_t oracle_every = 1;    ///< every Nth publish is checked
  std::size_t trace_events = 0;    ///< traced replay prefix
  std::size_t side_trees = 0;      ///< trees in the traced store/prune side pair
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string tmp_dir = ".bench_tmp";
  std::string spans_path;  ///< traced run: where the spans are written
};

/// Everything generated from the seed before any timing starts. Stream k
/// of seed s is 8s + k (see make_inputs).
struct Inputs {
  std::unique_ptr<dbsp::WorkloadDomain> domain;
  std::vector<std::unique_ptr<dbsp::Node>> stable;    ///< stream 1, never churned
  std::vector<std::unique_ptr<dbsp::Node>> arrivals;  ///< stream 4, churn arrivals
  std::vector<dbsp::Event> events;                    ///< stream 2
  std::vector<dbsp::Event> training;                  ///< stream 3
};

/// The spec scaled by `scale` (populations and prefixes, at least 1).
[[nodiscard]] WorkloadSpec scaled(const WorkloadSpec& spec, double scale);
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// The options dbspd builds for its PubSub (daemon/dbspd.cpp).
[[nodiscard]] dbsp::PubSubOptions daemon_pubsub_options(bool pruning);
/// The options dbspd builds for its NetServer, on an ephemeral port.
[[nodiscard]] dbsp::net::NetServerOptions daemon_server_options();

/// A running system under test and the generator's connections to it.
struct Sut {
  std::string store_dir;
  std::unique_ptr<dbsp::net::NetServer> server;
  std::vector<dbsp::net::DbspClient> subscribers;
  std::optional<dbsp::net::DbspClient> publisher;
  std::optional<dbsp::net::DbspClient> churner;  ///< churn (concurrent or quiet)
  std::vector<std::uint64_t> stable_ids;  ///< server id of inputs.stable[j]
  std::deque<std::uint64_t> churn_ids;    ///< churner's population, oldest first
  std::size_t next_arrival = 0;           ///< next inputs.arrivals index

  Sut() = default;
  Sut(const Sut&) = delete;
  Sut& operator=(const Sut&) = delete;
  ~Sut();

  [[nodiscard]] dbsp::PubSub& pubsub() const;
};

/// Server start + connects + train + initial subscribes + initial prune.
/// `trace_ring` replaces the flight recorder's ring size when nonzero.
/// Throws std::runtime_error on any failure (set-up must not fail).
[[nodiscard]] std::unique_ptr<Sut> set_up(const WorkloadSpec& spec, const Inputs& inputs,
                                          const std::string& store_dir,
                                          std::size_t trace_ring = 0);

/// Failures counted into `failed`; every name is reported.
struct Failures {
  std::uint64_t verb_errors = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t slow_consumer_disconnects = 0;
  std::uint64_t lost_notifications = 0;  ///< publishes whose receipts != reply
  std::uint64_t stale_notifications = 0;
  std::uint64_t oracle_mismatches = 0;
  std::uint64_t layer_mismatches = 0;  ///< traced layers disagreeing on a match count
  std::uint64_t trace_gaps = 0;        ///< traced publishes the server's ring lost

  [[nodiscard]] std::uint64_t total() const {
    return verb_errors + protocol_errors + slow_consumer_disconnects + lost_notifications +
           stale_notifications + oracle_mismatches + layer_mismatches + trace_gaps;
  }
  [[nodiscard]] std::map<std::string, std::uint64_t> named() const;
};

/// Tracks every publish in flight so receivers can key a notification to
/// its publish (the trace id the publisher chose) and the end of the run
/// can prove that each publish's receipts equal its reply's matched count.
/// A fixed-size ring: memory does not depend on the system's throughput.
class DeliveryBook {
 public:
  static constexpr std::size_t kRing = 1u << 16;

  DeliveryBook();

  /// Publish `k` starts at `send_ns`; returns its trace id. Reusing a ring
  /// slot first settles its previous publish.
  std::uint64_t begin(std::uint64_t k, std::uint64_t send_ns);
  /// The reply of publish `k` reported `matched` notifications.
  void complete(std::uint64_t k, std::uint64_t matched);

  /// A receiver got a notification carrying `trace_id` at `now`. Returns
  /// the publish-to-receipt latency, or nullopt (a stale/unknown id).
  std::optional<std::uint64_t> receive(std::uint64_t trace_id, std::uint64_t now);

  /// Waits (until `deadline_ns`) for publish `k` to be fully received.
  void await(std::uint64_t k, std::uint64_t deadline_ns) const;

  /// Waits (until `deadline_ns`) for every publish to be fully received,
  /// then settles all of them.
  void finish(std::uint64_t deadline_ns);

  [[nodiscard]] static std::uint64_t trace_id(std::uint64_t k);
  [[nodiscard]] static std::uint64_t publish_index(std::uint64_t trace_id);

  std::atomic<std::uint64_t> lost{0};   ///< publishes settled with receipts != reply
  std::atomic<std::uint64_t> stale{0};  ///< notifications with no live publish

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{~0ULL};
    std::atomic<std::uint64_t> send_ns{0};
    std::atomic<std::int64_t> matched{-1};
    std::atomic<std::int64_t> received{0};
  };
  static bool received_all(const Slot& slot);
  void settle(Slot& slot, std::uint64_t deadline_ns);

  std::unique_ptr<Slot[]> ring_;
  std::uint64_t published_ = 0;
};

/// One receiving connection's tallies.
struct Receiver {
  explicit Receiver(Slicer s = {}) : slicer(s), delivery(s.slices) {}

  Slicer slicer;
  SlicedTally delivery;  ///< publisher send -> receipt, per slice of receipt
  Histogram lag;         ///< server publish wall clock -> receipt
  std::vector<Delivery> sampled;
  std::uint64_t errors = 0;
};

/// Reads notifications off `client` until `stop`, keying each to its
/// publish; notifications of publishes whose index is a multiple of
/// `oracle_every` are kept for the oracle.
void receive_loop(dbsp::net::DbspClient& client, DeliveryBook& book, Receiver& out,
                  std::size_t oracle_every, const std::atomic<bool>& stop);

/// Drains notifications a request/reply client already buffered.
void drain_buffered(dbsp::net::DbspClient& client, DeliveryBook& book, Receiver& out);

/// The oracle population: stable server ids with their unpruned trees.
[[nodiscard]] std::vector<std::pair<std::uint64_t, const dbsp::Node*>> stable_population(
    const Sut& sut, const Inputs& inputs);

struct RunResult {
  MetricList metrics;
  std::uint64_t attempted = 0;
  Failures failures;
  std::map<std::string, double> load;  ///< what was offered (connections, sizes)
  std::size_t trace_ring = 0;          ///< the system's flight-recorder ring size
};

[[nodiscard]] RunResult run_e2e(const WorkloadSpec& spec, const Inputs& inputs,
                                const RunOptions& options);
[[nodiscard]] RunResult run_traced(const WorkloadSpec& spec, const Inputs& inputs,
                                   const RunOptions& options);

/// Checks the percentile helpers and the oracle; 0 when all pass.
[[nodiscard]] int self_test();

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
