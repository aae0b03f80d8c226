#pragma once

#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

/// \file distributions.hpp
/// The marginal distributions of the synthetic workload.
///
/// The paper attributes interstices to two properties of real logs:
/// fat-tailed CPU-size marginals (jobs demand power-of-two CPU counts, with
/// rare huge jobs) and gross user runtime overestimates (median estimate
/// 6 h vs median actual 0.8 h on Blue Mountain).  Each knob here exists to
/// reproduce one of those properties.

namespace istc::workload {

/// Discrete distribution over power-of-two CPU counts.
/// A weighted set of "common" size classes plus a Pareto tail reaching the
/// largest size, producing the fat-tailed marginals of real logs.
class SizeDistribution {
 public:
  struct SizeClass {
    int cpus = 1;
    double weight = 1.0;
  };

  /// \param classes      common size classes with weights (need not be
  ///                     sorted; weights are normalized)
  /// \param tail_prob    probability of drawing from the Pareto tail instead
  /// \param tail_alpha   tail shape (smaller = fatter)
  /// \param max_cpus     tail values are clamped to [1, max_cpus] and
  ///                     rounded down to a power of two
  SizeDistribution(std::vector<SizeClass> classes, double tail_prob,
                   double tail_alpha, int max_cpus);

  int operator()(Rng& rng) const;

 private:
  std::vector<int> class_cpus_;
  DiscreteSampler class_sampler_;
  double tail_prob_;
  double tail_alpha_;
  int max_cpus_;
};

/// Round down to the nearest power of two (>= 1).
int floor_pow2(int v);

/// Lognormal runtime with clamping.  Parameterized directly by the target
/// median and mean (the paper quotes those), which determine (mu, sigma):
///   median = exp(mu)          => mu    = ln(median)
///   mean   = exp(mu + s^2/2)  => sigma = sqrt(2 ln(mean/median))
class RuntimeDistribution {
 public:
  RuntimeDistribution(Seconds median, Seconds mean, Seconds min_runtime,
                      Seconds max_runtime);

  Seconds operator()(Rng& rng) const;

  double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
  Seconds min_;
  Seconds max_;
};

/// The user runtime-estimate model.
///
/// With probability `default_prob` the user submits a site default limit
/// (drawn from `defaults`, independent of the actual runtime — this is what
/// makes estimates "gross overestimates"); otherwise the user guesses
/// runtime * U(pad_lo, pad_hi) rounded up to 15-minute granularity.
/// Estimates are clamped to [runtime, max_estimate] so a job is never
/// killed at its limit.
class EstimateModel {
 public:
  EstimateModel(std::vector<Seconds> defaults, std::vector<double> weights,
                double default_prob, double pad_lo, double pad_hi,
                Seconds max_estimate);

  Seconds operator()(Seconds runtime, Rng& rng) const;

 private:
  std::vector<Seconds> defaults_;
  DiscreteSampler default_sampler_;
  double default_prob_;
  double pad_lo_;
  double pad_hi_;
  Seconds max_estimate_;
};

}  // namespace istc::workload
