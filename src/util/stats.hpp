// Statistics helpers used by the load-balancing logic, the benchmark
// harnesses and the tests: running accumulators, percentiles, and the
// imbalance metrics the paper reasons about (max/mean particle counts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace picprk::util {

/// Streaming accumulator: count/mean/variance (Welford), min/max, sum.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Load-imbalance summary over a vector of per-worker loads.
struct LoadImbalance {
  double max = 0.0;
  double mean = 0.0;
  double min = 0.0;
  /// max/mean; 1.0 is perfect balance. The figure the paper quotes
  /// ("max particles per core" vs ideal) is max and mean here.
  double ratio = 1.0;
  /// (max - mean)/max in [0,1): fraction of the critical path wasted.
  double lost_fraction = 0.0;
};

LoadImbalance imbalance(std::span<const double> loads);

/// Percentile with linear interpolation; `p` is clamped into [0,100].
/// Sorts a copy. Degenerate samples are handled gracefully: an empty
/// sample yields 0.0 and a single-element sample yields that element for
/// every p, so callers summarising short runs need no special cases.
double percentile(std::vector<double> values, double p);

/// Quantile of a fixed-width bucketed sample: `counts[i]` observations
/// fell into bucket i of the equal-width partition of [lo, hi). Linear
/// interpolation inside the bucket containing the rank; an empty
/// histogram yields `lo`. Shared by util::Histogram and the obs
/// subsystem's atomic histograms so both report the same quantiles.
double histogram_quantile(std::span<const std::uint64_t> counts, double lo, double hi,
                          double p);

/// Fixed-width histogram over [lo, hi); values outside are clamped into
/// the first/last bucket. Used by the distribution-gallery bench.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x, std::uint64_t weight = 1);
  std::span<const std::uint64_t> counts() const { return counts_; }
  double bucket_low(std::size_t i) const;
  std::uint64_t total() const { return total_; }

  /// Interpolated quantile of the bucketed sample (histogram_quantile).
  double quantile(double p) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace picprk::util
