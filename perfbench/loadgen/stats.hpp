#pragma once

/// \file
/// Measurement helpers of the load generator: a steady-clock stamp, a
/// fixed-size log-linear latency histogram (merged across threads, so the
/// generator's memory does not grow with the system's throughput), exact
/// percentiles over small sample vectors, time slices of a window, and the
/// result's metric list.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Exact percentile of `values` (q in [0,1]) by linear interpolation
/// between closest ranks — the same rule as numpy's default and Python's
/// statistics.quantiles(method="inclusive"). NaN when empty.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

/// Percentile of whole-microsecond durations (the system's own trace
/// spans): each sample v stands for a value spread evenly over
/// [v - 0.5, v + 0.5), so the result interpolates inside that interval — the
/// grouped-data median — instead of snapping to a whole number.
[[nodiscard]] inline double grouped_percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double target = q * static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size();) {
    const auto next = static_cast<std::size_t>(
        std::upper_bound(values.begin() + static_cast<std::ptrdiff_t>(i), values.end(),
                         values[i]) -
        values.begin());
    if (target <= static_cast<double>(next)) {
      return values[i] - 0.5 + (target - static_cast<double>(i)) / static_cast<double>(next - i);
    }
    i = next;
  }
  return values.back() + 0.5;
}

/// Latency histogram over nanoseconds: exact below 128 ns, then 128
/// sub-buckets per power of two (relative bucket width < 0.8%) up to 2^40 ns.
/// Quantiles interpolate linearly inside the bucket holding the rank.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr std::uint64_t kMax = (1ULL << 40) - 1;
  static constexpr std::size_t kBuckets = (40 - kSubBits + 1) * kSub;

  void record(std::uint64_t ns) {
    ++counts_[index(std::min(ns, kMax))];
    ++count_;
  }

  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// The q-quantile in nanoseconds (same rank rule as percentile()); NaN
  /// when empty.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return std::nan("");
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(before + c)) {
        if (width(i) == 1) return static_cast<double>(low(i));
        const double within = (rank - static_cast<double>(before) + 0.5) /
                              static_cast<double>(c);
        return static_cast<double>(low(i)) + within * static_cast<double>(width(i));
      }
      before += c;
    }
    return static_cast<double>(kMax);
  }

  [[nodiscard]] static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(shift + 1) << kSubBits) | ((v >> shift) & (kSub - 1)));
  }
  [[nodiscard]] static std::uint64_t low(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t shift = (i >> kSubBits) - 1;
    return ((i & (kSub - 1)) | kSub) << shift;
  }
  [[nodiscard]] static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : 1ULL << ((i >> kSubBits) - 1);
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// Maps a steady-clock time to its slice of a window cut into equal time
/// slices; times past the end fall into the last slice.
struct Slicer {
  std::uint64_t start_ns = 0;
  std::uint64_t slice_ns = 1;
  std::size_t slices = 1;

  [[nodiscard]] std::size_t at(std::uint64_t now) const {
    return now <= start_ns ? 0
                           : std::min<std::size_t>(slices - 1, (now - start_ns) / slice_ns);
  }
};

/// Latencies and their count per slice of one window, for one thread.
struct SlicedTally {
  explicit SlicedTally(std::size_t slices = 1) : latency(slices), count(slices, 0) {}

  void record(std::size_t slice, std::uint64_t ns) {
    latency[slice].record(ns);
    ++count[slice];
  }

  std::vector<Histogram> latency;
  std::vector<std::uint64_t> count;
};

/// One reported metric; `samples` is the sample count behind a percentile
/// or ratio (0 for plain counts).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

class MetricList {
 public:
  void add(std::string name, double value, std::string unit, std::uint64_t samples = 0) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Adds `name` as the q-quantile of `h` in microseconds.
  void add_us(std::string name, const Histogram& h, double q) {
    add(std::move(name), h.quantile(q) / 1000.0, "us", h.count());
  }
  /// Adds `name` as the exact q-quantile of `ns` values in microseconds.
  void add_us(std::string name, const std::vector<double>& ns, double q) {
    add(std::move(name), percentile(ns, q) / 1000.0, "us", ns.size());
  }
  /// Adds `name` as the grouped q-quantile of whole-microsecond `us` values.
  void add_span_us(std::string name, const std::vector<double>& us, double q) {
    add(std::move(name), grouped_percentile(us, q), "us", us.size());
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
