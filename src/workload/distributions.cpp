#include "workload/distributions.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace istc::workload {

int floor_pow2(int v) {
  ISTC_EXPECTS(v >= 1);
  int p = 1;
  while (p * 2 <= v && p < (1 << 30)) p *= 2;
  return p;
}

SizeDistribution::SizeDistribution(std::vector<SizeClass> classes,
                                   double tail_prob, double tail_alpha,
                                   int max_cpus)
    : tail_prob_(tail_prob), tail_alpha_(tail_alpha), max_cpus_(max_cpus) {
  ISTC_EXPECTS(!classes.empty());
  ISTC_EXPECTS(tail_prob >= 0 && tail_prob <= 1);
  ISTC_EXPECTS(tail_alpha > 0);
  ISTC_EXPECTS(max_cpus >= 1);
  std::vector<double> weights;
  for (const auto& c : classes) {
    ISTC_EXPECTS(c.cpus >= 1 && c.cpus <= max_cpus);
    class_cpus_.push_back(c.cpus);
    weights.push_back(c.weight);
  }
  class_sampler_ = DiscreteSampler(weights);
}

int SizeDistribution::operator()(Rng& rng) const {
  if (rng.bernoulli(tail_prob_)) {
    const double v = rng.bounded_pareto(1.0, static_cast<double>(max_cpus_),
                                        tail_alpha_);
    return floor_pow2(std::clamp(static_cast<int>(v), 1, max_cpus_));
  }
  return class_cpus_[class_sampler_(rng)];
}

RuntimeDistribution::RuntimeDistribution(Seconds median, Seconds mean,
                                         Seconds min_runtime,
                                         Seconds max_runtime)
    : mu_(std::log(static_cast<double>(median))),
      sigma_(std::sqrt(2.0 * std::log(static_cast<double>(mean) /
                                      static_cast<double>(median)))),
      min_(min_runtime),
      max_(max_runtime) {
  ISTC_EXPECTS(median > 0);
  ISTC_EXPECTS(mean >= median);  // lognormal has mean >= median
  ISTC_EXPECTS(min_runtime >= 1);
  ISTC_EXPECTS(max_runtime > min_runtime);
}

Seconds RuntimeDistribution::operator()(Rng& rng) const {
  const double r = rng.lognormal(mu_, sigma_);
  const auto s = static_cast<Seconds>(std::llround(r));
  return std::clamp(s, min_, max_);
}

EstimateModel::EstimateModel(std::vector<Seconds> defaults,
                             std::vector<double> weights, double default_prob,
                             double pad_lo, double pad_hi,
                             Seconds max_estimate)
    : defaults_(std::move(defaults)),
      default_sampler_(weights),
      default_prob_(default_prob),
      pad_lo_(pad_lo),
      pad_hi_(pad_hi),
      max_estimate_(max_estimate) {
  ISTC_EXPECTS(!defaults_.empty());
  ISTC_EXPECTS(defaults_.size() == weights.size());
  ISTC_EXPECTS(default_prob >= 0 && default_prob <= 1);
  ISTC_EXPECTS(pad_lo >= 1.0 && pad_hi >= pad_lo);
  ISTC_EXPECTS(max_estimate > 0);
}

Seconds EstimateModel::operator()(Seconds runtime, Rng& rng) const {
  Seconds est;
  if (rng.bernoulli(default_prob_)) {
    est = defaults_[default_sampler_(rng)];
  } else {
    const double padded =
        static_cast<double>(runtime) * rng.uniform(pad_lo_, pad_hi_);
    constexpr Seconds kGranule = 15 * kSecondsPerMinute;
    est = (static_cast<Seconds>(padded) / kGranule + 1) * kGranule;
  }
  return std::clamp(est, runtime, std::max(runtime, max_estimate_));
}

}  // namespace istc::workload
