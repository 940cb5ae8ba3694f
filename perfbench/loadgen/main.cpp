// dbsp_loadgen — the benchmark's load generator. perfbench/run.py builds
// and runs it; run it directly as
//
//   dbsp_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                [--scale F] [--tmp-dir DIR] [--spans PATH]
//   dbsp_loadgen --self-test
//
// It prints one JSON line (the run's metrics, sample counts, failures and
// the system's configuration) as the last line of stdout and exits 0 when
// the run completed, whether or not it found failures.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sharded_engine.hpp"
#include "loadgen.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Clears every DBSP_* variable so the host environment cannot change the
/// system measured: each knob then resolves to its shipped default.
std::vector<std::string> clear_dbsp_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("DBSP_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  return names;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string to_json(const RunOptions& options, const WorkloadSpec& spec, const RunResult& r,
                    const std::vector<std::string>& cleared) {
  std::ostringstream o;
  o << "{\"workload\":" << json_string(spec.name) << ",\"seed\":" << options.seed
    << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"seconds\":" << json_number(options.seconds)
    << ",\"scale\":" << json_number(options.scale) << ",\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failures.total() << ",\"failures\":{";
  bool first = true;
  for (const auto& [name, n] : r.failures.named()) {
    o << (first ? "" : ",") << json_string(name) << ":" << n;
    first = false;
  }
  o << "},\"metrics\":{";
  first = true;
  for (const Metric& m : r.metrics.all()) {
    o << (first ? "" : ",") << json_string(m.name) << ":{\"value\":" << json_number(m.value)
      << ",\"unit\":" << json_string(m.unit) << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  o << "},\"load\":{";
  first = true;
  for (const auto& [name, v] : r.load) {
    o << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  const dbsp::PubSubOptions pso = daemon_pubsub_options(spec.pruning);
  const dbsp::net::NetServerOptions nso = daemon_server_options();
  const dbsp::obs::FlightRecorderOptions tro = dbsp::obs::FlightRecorderOptions::from_env();
  o << "},\"sut\":{\"shards\":" << dbsp::resolve_shard_count(pso.engine.shards)
    << ",\"backend\":" << json_string(dbsp::to_string(pso.engine.backend))
    << ",\"pruning\":" << (pso.pruning ? "true" : "false")
    << ",\"durable\":" << (spec.durable ? "true" : "false")
    << ",\"aggregation\":" << (pso.aggregation ? "true" : "false")
    << ",\"metrics\":" << (pso.metrics ? "true" : "false")
    << ",\"tracing\":" << (pso.tracing ? "true" : "false")
    << ",\"trace_sample_every\":" << tro.sample_every
    << ",\"every_publish_sampled\":" << (options.trace ? "true" : "false")
    << ",\"trace_ring\":" << r.trace_ring
    << ",\"max_write_queue_bytes\":" << nso.max_write_queue_bytes
    << ",\"max_frame_bytes\":" << nso.max_frame_bytes << ",\"cleared_env\":[";
  for (std::size_t i = 0; i < cleared.size(); ++i) {
    o << (i == 0 ? "" : ",") << json_string(cleared[i]);
  }
  o << "]}}";
  return o.str();
}

int usage() {
  std::cerr << "usage: dbsp_loadgen --workload NAME --seed N --seconds S --trace 0|1\n"
               "                    [--scale F] [--tmp-dir DIR] [--spans PATH]\n"
               "       dbsp_loadgen --self-test\n"
               "workloads:";
  for (const WorkloadSpec& s : workloads()) std::cerr << " " << s.name;
  std::cerr << "\n";
  return 2;
}

int run(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(v);
    } else if (arg == "--trace") {
      options.trace = v == "1";
    } else if (arg == "--scale") {
      options.scale = std::stod(v);
    } else if (arg == "--tmp-dir") {
      options.tmp_dir = v;
    } else if (arg == "--spans") {
      options.spans_path = v;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* base = have_workload ? find_workload(options.workload) : nullptr;
  if (base == nullptr || !(options.seconds > 0) || !(options.scale > 0)) return usage();

  const std::vector<std::string> cleared = clear_dbsp_environment();
  const WorkloadSpec spec = scaled(*base, options.scale);
  std::filesystem::create_directories(options.tmp_dir);
  const Inputs inputs = make_inputs(spec, options.seed);
  const RunResult result =
      options.trace ? run_traced(spec, inputs, options) : run_e2e(spec, inputs, options);
  std::cout << to_json(options, spec, result, cleared) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dbsp_loadgen: " << e.what() << "\n";
    return 1;
  }
}
