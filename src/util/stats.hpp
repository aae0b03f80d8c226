#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

/// \file stats.hpp
/// Streaming and batch descriptive statistics used throughout the metrics
/// and experiment layers.

namespace istc {

/// Welford's online mean/variance accumulator.  Numerically stable and
/// mergeable, so per-thread accumulators can be combined.
class OnlineStats {
 public:
  void add(double x);

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch summary of a sample: count, mean, stddev, min/median/max and
/// arbitrary quantiles.  Keeps a sorted copy; intended for result vectors,
/// not event streams.
class Summary {
 public:
  Summary() = default;
  explicit Summary(std::vector<double> values);

  std::size_t count() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }
  double mean() const { return mean_; }
  double stddev() const { return stddev_; }
  double sum() const { return sum_; }
  double min() const;
  double max() const;
  double median() const { return quantile(0.5); }

  /// Linear-interpolation quantile, q in [0, 1].
  double quantile(double q) const;

  /// "12.3 ± 4.5" rendering used by the paper's tables.
  std::string mean_pm_std(int precision = 1) const;

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
  double stddev_ = 0.0;
  double sum_ = 0.0;
};

/// Median of a sample without building a Summary.
double median_of(std::span<const double> values);

/// Quantile (linear interpolation) of an *already sorted* sample.
double sorted_quantile(std::span<const double> sorted, double q);

/// Pearson correlation of two equal-length samples (0 if degenerate).
double correlation(std::span<const double> x, std::span<const double> y);

/// Ordinary-least-squares fit y ~ a + b*x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit linear_fit(std::span<const double> x, std::span<const double> y);

}  // namespace istc
