// dbsp_loadgen --self-test: the percentile and sample-count helpers, and
// the delivery oracle against injected faults (a dropped notification, an
// extra one, a duplicate, an id outside the population).

#include <cmath>
#include <cstdio>
#include <random>

#include "loadgen.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double rel) { return std::fabs(a - b) <= rel * std::fabs(b); }

void test_percentiles() {
  expect(percentile({5, 1, 4, 2, 3}, 0.5) == 3, "percentile median");
  expect(percentile({1, 2, 3, 4}, 0.25) == 1.75, "percentile interpolates between ranks");
  expect(percentile({7}, 0.99) == 7, "percentile of one sample");
  expect(std::isnan(percentile({}, 0.5)), "percentile of nothing is NaN");
  expect(grouped_percentile({10, 10, 10, 11}, 0.5) == 10 - 0.5 + 2.0 / 3.0,
         "grouped percentile interpolates inside the microsecond");
  expect(grouped_percentile({4, 4}, 0.5) == 4, "grouped percentile of equal samples");

  Histogram h;
  expect(h.count() == 0 && std::isnan(h.quantile(0.5)), "empty histogram");
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v);
  expect(h.count() == 100, "histogram sample count");
  expect(h.quantile(0.5) == 49, "histogram is exact below 128 ns");

  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(11.0, 1.0);
  Histogram big;
  std::vector<double> exact;
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<std::uint64_t>(dist(rng));
    big.record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    expect(near(big.quantile(q), percentile(exact, q), 0.01),
           "histogram quantile within 1% of the exact percentile");
  }
  Histogram merged;
  merged.merge(big);
  merged.merge(h);
  expect(merged.count() == big.count() + h.count(), "merged sample count");
  expect(Histogram::index(Histogram::kMax) < Histogram::kBuckets, "histogram covers its range");

  MetricList m;
  m.add_us("x", big, 0.5);
  expect(m.all().back().samples == 100000, "metric carries its sample count");
}

void test_oracle() {
  const auto domain = dbsp::make_auction_workload();
  auto source = domain->subscriptions(1);
  std::vector<std::unique_ptr<dbsp::Node>> trees;
  std::vector<std::pair<std::uint64_t, const dbsp::Node*>> population;
  for (std::uint64_t id = 1; id <= 400; ++id) {
    trees.push_back(source->next());
    population.emplace_back(id, trees.back().get());
  }
  const std::vector<dbsp::Event> events = domain->events(2)->generate(64);

  std::vector<OracleSample> samples;
  std::vector<Delivery> exact;
  std::uint64_t matched_key = 0;
  std::uint64_t unmatched_id = 0;
  for (std::uint64_t k = 0; k < events.size(); ++k) {
    samples.push_back({k, &events[k]});
    for (const auto& [id, tree] : population) {
      if (tree->evaluate_event(events[k])) {
        exact.push_back({k, id});
        matched_key = k;
      } else if (k == 0) {
        unmatched_id = id;
      }
    }
  }
  expect(!exact.empty() && unmatched_id != 0, "oracle fixture has matches and misses");

  const OracleResult clean = check_deliveries(samples, exact, population, false, 3);
  expect(clean.checked == events.size() && clean.mismatches == 0 && clean.surplus == 0,
         "exact deliveries pass");
  expect(clean.expected == exact.size() && clean.delivered == exact.size(),
         "oracle counts expected and delivered ids");

  std::vector<Delivery> dropped = exact;
  for (auto it = dropped.begin(); it != dropped.end(); ++it) {
    if (it->key == matched_key) {
      dropped.erase(it);
      break;
    }
  }
  expect(check_deliveries(samples, dropped, population, false, 2).mismatches == 1,
         "a dropped notification is flagged");
  expect(check_deliveries(samples, dropped, population, true, 2).mismatches == 1,
         "a dropped notification is flagged under pruning too");

  std::vector<Delivery> extra = exact;
  extra.push_back({0, unmatched_id});
  expect(check_deliveries(samples, extra, population, false, 2).mismatches == 1,
         "an extra notification is flagged");
  const OracleResult pruned = check_deliveries(samples, extra, population, true, 2);
  expect(pruned.mismatches == 0 && pruned.surplus == 1,
         "under pruning an extra notification is a false positive");
  expect(pruned.false_positive_share() == 1.0 / static_cast<double>(extra.size()),
         "false-positive share");

  std::vector<Delivery> duplicate = exact;
  duplicate.push_back(exact.front());
  expect(check_deliveries(samples, duplicate, population, true, 1).mismatches == 1,
         "a duplicate notification is flagged");

  std::vector<Delivery> unknown = exact;
  unknown.push_back({0, 999999});
  expect(check_deliveries(samples, unknown, population, true, 1).mismatches == 1,
         "a notification for an unknown subscription is flagged");
}

void test_delivery_book() {
  DeliveryBook book;
  const std::uint64_t id = book.begin(5, 100);
  expect(DeliveryBook::publish_index(id) == 5, "trace id carries the publish index");
  expect(book.receive(id, 350) == std::optional<std::uint64_t>(250), "receipt latency");
  expect(!book.receive(DeliveryBook::trace_id(9), 400).has_value(), "unknown publish");
  book.complete(5, 2);  // two notifications promised, one received
  book.finish(now_ns());
  expect(book.lost.load() == 1 && book.stale.load() == 1, "lost and stale notifications");
}

}  // namespace

int self_test() {
  test_percentiles();
  test_oracle();
  test_delivery_book();
  std::fprintf(stderr, "self-test: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
