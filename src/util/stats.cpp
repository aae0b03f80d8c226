#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/assert.hpp"

namespace istc {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

Summary::Summary(std::vector<double> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
  OnlineStats acc;
  for (double v : sorted_) acc.add(v);
  mean_ = acc.mean();
  stddev_ = acc.stddev();
  sum_ = acc.sum();
}

double Summary::min() const {
  ISTC_EXPECTS(!sorted_.empty());
  return sorted_.front();
}

double Summary::max() const {
  ISTC_EXPECTS(!sorted_.empty());
  return sorted_.back();
}

double Summary::quantile(double q) const {
  return sorted_quantile(sorted_, q);
}

std::string Summary::mean_pm_std(int precision) const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f ± %.*f", precision, mean_, precision,
                stddev_);
  return buf;
}

double sorted_quantile(std::span<const double> sorted, double q) {
  ISTC_EXPECTS(!sorted.empty());
  ISTC_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median_of(std::span<const double> values) {
  ISTC_EXPECTS(!values.empty());
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return sorted_quantile(copy, 0.5);
}

double correlation(std::span<const double> x, std::span<const double> y) {
  ISTC_EXPECTS(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  OnlineStats sx, sy;
  for (double v : x) sx.add(v);
  for (double v : y) sy.add(v);
  double cov = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    cov += (x[i] - sx.mean()) * (y[i] - sy.mean());
  }
  cov /= static_cast<double>(x.size() - 1);
  const double denom = sx.stddev() * sy.stddev();
  return denom > 0 ? cov / denom : 0.0;
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  ISTC_EXPECTS(x.size() == y.size());
  ISTC_EXPECTS(x.size() >= 2);
  OnlineStats sx, sy;
  for (double v : x) sx.add(v);
  for (double v : y) sy.add(v);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - sx.mean()) * (y[i] - sy.mean());
    sxx += (x[i] - sx.mean()) * (x[i] - sx.mean());
  }
  LinearFit fit;
  fit.slope = sxx > 0 ? sxy / sxx : 0.0;
  fit.intercept = sy.mean() - fit.slope * sx.mean();
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double pred = fit.intercept + fit.slope * x[i];
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - sy.mean()) * (y[i] - sy.mean());
  }
  fit.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace istc
