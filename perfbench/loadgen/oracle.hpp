#pragma once

/// \file
/// The delivery oracle. For each sampled publish, the set of subscription
/// ids delivered to the watched connections is compared with a naive
/// evaluation of the unpruned trees the generator sent. Unpruned systems
/// must deliver exactly that set; a pruned system may deliver a superset
/// (the surplus is its false positives) but never miss an id. Duplicates
/// and ids outside the watched population are errors in both modes.

#include <algorithm>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "event/event.hpp"
#include "subscription/node.hpp"

namespace perfbench {

/// One publish the oracle re-evaluates; `key` joins it to its deliveries.
struct OracleSample {
  std::uint64_t key = 0;
  const dbsp::Event* event = nullptr;
};

/// One notification received for the publish `key`.
struct Delivery {
  std::uint64_t key = 0;
  std::uint64_t subscription = 0;
};

struct OracleResult {
  std::uint64_t checked = 0;     ///< sampled publishes compared
  std::uint64_t mismatches = 0;  ///< publishes failing the rule of the mode
  std::uint64_t expected = 0;    ///< ids the naive evaluation selects
  std::uint64_t delivered = 0;   ///< ids received (duplicates included)
  std::uint64_t surplus = 0;     ///< delivered ids the naive evaluation rejects

  /// Delivered notifications the original filters reject (0 when unpruned).
  [[nodiscard]] double false_positive_share() const {
    return delivered == 0 ? 0.0
                          : static_cast<double>(surplus) / static_cast<double>(delivered);
  }
};

/// Checks every sample against `population` (server id -> unpruned tree,
/// sorted by id). `allow_surplus` selects the pruned rule. Evaluation fans out over
/// `threads` workers; the result does not depend on their number.
[[nodiscard]] inline OracleResult check_deliveries(
    const std::vector<OracleSample>& samples, const std::vector<Delivery>& deliveries,
    const std::vector<std::pair<std::uint64_t, const dbsp::Node*>>& population,
    bool allow_surplus, unsigned threads) {
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> got;
  for (const Delivery& d : deliveries) got[d.key].push_back(d.subscription);

  std::vector<OracleResult> partial(std::max(1u, threads));
  const auto work = [&](std::size_t worker) {
    OracleResult& r = partial[worker];
    std::vector<std::uint64_t> expected;
    for (std::size_t i = worker; i < samples.size(); i += partial.size()) {
      expected.clear();
      for (const auto& [id, tree] : population) {
        if (tree->evaluate_event(*samples[i].event)) expected.push_back(id);
      }
      std::sort(expected.begin(), expected.end());
      std::vector<std::uint64_t> delivered;
      if (const auto it = got.find(samples[i].key); it != got.end()) delivered = it->second;
      std::sort(delivered.begin(), delivered.end());

      const bool duplicate =
          std::adjacent_find(delivered.begin(), delivered.end()) != delivered.end();
      const bool missing =
          !std::includes(delivered.begin(), delivered.end(), expected.begin(), expected.end());
      const std::size_t surplus = delivered.size() - std::min(delivered.size(), expected.size());
      bool unknown = false;
      for (const std::uint64_t id : delivered) {
        const auto pos = std::lower_bound(
            population.begin(), population.end(), id,
            [](const auto& entry, std::uint64_t v) { return entry.first < v; });
        if (pos == population.end() || pos->first != id) unknown = true;
      }
      ++r.checked;
      r.expected += expected.size();
      r.delivered += delivered.size();
      r.surplus += missing ? 0 : surplus;
      if (duplicate || missing || unknown || (!allow_surplus && surplus != 0)) ++r.mismatches;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < partial.size(); ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();

  OracleResult total;
  for (const OracleResult& r : partial) {
    total.checked += r.checked;
    total.mismatches += r.mismatches;
    total.expected += r.expected;
    total.delivered += r.delivered;
    total.surplus += r.surplus;
  }
  return total;
}

}  // namespace perfbench
