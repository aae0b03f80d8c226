#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/assert.hpp"

namespace istc {

Log10Histogram::Log10Histogram(std::size_t decades) : counts_(decades, 0) {
  ISTC_EXPECTS(decades > 0);
}

void Log10Histogram::add(double value) {
  ISTC_EXPECTS(value >= 0);
  std::size_t bin = 0;
  if (value >= 1.0) {
    bin = static_cast<std::size_t>(std::log10(value));
    bin = std::min(bin, counts_.size() - 1);
  }
  ++counts_[bin];
  ++total_;
}

void Log10Histogram::add_all(const std::vector<double>& values) {
  for (double v : values) add(v);
}

std::size_t Log10Histogram::count(std::size_t decade) const {
  ISTC_EXPECTS(decade < counts_.size());
  return counts_[decade];
}

double Log10Histogram::fraction(std::size_t decade) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(decade)) / static_cast<double>(total_);
}

std::string Log10Histogram::bin_label(std::size_t decade) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "[%zu,%zu)", decade, decade + 1);
  return buf;
}

SurvivalCurve::SurvivalCurve(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double SurvivalCurve::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  const auto above = static_cast<std::size_t>(sorted_.end() - it);
  return static_cast<double>(above) / static_cast<double>(sorted_.size());
}

std::vector<std::pair<double, double>> SurvivalCurve::steps() const {
  std::vector<std::pair<double, double>> out;
  const double n = static_cast<double>(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    if (i + 1 < sorted_.size() && sorted_[i + 1] == sorted_[i]) continue;
    out.emplace_back(sorted_[i], static_cast<double>(sorted_.size() - i - 1) / n);
  }
  return out;
}

}  // namespace istc
