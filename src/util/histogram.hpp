#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// \file histogram.hpp
/// Log10-bin histograms and survival curves.  The paper's Figs. 5-6 bin
/// native-job wait times into decades of seconds: [0,1), [1,2), ... in
/// log10 space, with an extra bin for zero/sub-second waits folded into
/// the first decade.

namespace istc {

/// Histogram over log10(x) with unit-width decade bins starting at 10^0.
/// Values below 1 (including 0) land in the first bin, matching the paper's
/// "(0,1]" decade convention.
class Log10Histogram {
 public:
  /// \param decades number of decade bins, e.g. 6 -> [0,1)...[5,6).
  explicit Log10Histogram(std::size_t decades);

  void add(double value);
  void add_all(const std::vector<double>& values);

  std::size_t decades() const { return counts_.size(); }
  std::size_t count(std::size_t decade) const;
  std::size_t total() const { return total_; }

  /// Fraction of samples in a decade (0 when empty).
  double fraction(std::size_t decade) const;

  /// Label such as "[2,3)" for reports.
  static std::string bin_label(std::size_t decade);

 private:
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Empirical survival function P(X > x), the paper's "CDF > Makespan"
/// (Fig. 3).  Evaluate at arbitrary x or dump as a step series.
class SurvivalCurve {
 public:
  explicit SurvivalCurve(std::vector<double> samples);

  /// P(X > x) over the sample.
  double at(double x) const;

  /// (x, P(X > x)) pairs at each distinct sample point.
  std::vector<std::pair<double, double>> steps() const;

  std::size_t count() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

}  // namespace istc
