#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "util/assert.hpp"

/// \file rng.hpp
/// Deterministic, platform-independent random numbers.
///
/// The standard library's distribution objects are implementation-defined,
/// so two compilers given the same seed can disagree; workload generation
/// must be bit-reproducible for the experiment tables to be replayable.
/// We therefore ship xoshiro256** (engine) plus hand-rolled distributions.

namespace istc {

/// splitmix64: used to expand a single 64-bit seed into engine state.
/// Reference: Vigna, http://prng.di.unimi.it/splitmix64.c
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator.
/// Reference: Blackman & Vigna, http://prng.di.unimi.it/xoshiro256starstar.c
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1d0c0ffee5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
    // All-zero state is a fixed point; splitmix cannot emit four zeros from
    // any seed, but guard anyway.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  /// Derive an independent stream (e.g. one per replication / per thread).
  [[nodiscard]] Rng fork(std::uint64_t stream) const {
    SplitMix64 sm(state_[0] ^ (stream * 0x9e3779b97f4a7c15ULL) ^ state_[3]);
    Rng r(sm.next());
    return r;
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface so std::shuffle etc. also work.
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  Unbiased (Lemire rejection).
  std::uint64_t below(std::uint64_t n) {
    ISTC_EXPECTS(n > 0);
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    ISTC_EXPECTS(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with given mean (= 1/rate).
  double exponential(double mean) {
    ISTC_EXPECTS(mean > 0);
    // 1 - uniform() is in (0, 1]; log of it is finite.
    return -mean * std::log(1.0 - uniform());
  }

  /// Standard normal via Box-Muller (deterministic, no cached spare so the
  /// stream position is a pure function of call count).
  double normal() {
    const double u1 = 1.0 - uniform();  // (0,1]
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mu, double sigma) { return mu + sigma * normal(); }

  /// Lognormal: exp(N(mu, sigma)).  mu/sigma are the log-space parameters.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Bounded Pareto on [lo, hi] with shape alpha.
  double bounded_pareto(double lo, double hi, double alpha) {
    ISTC_EXPECTS(0 < lo && lo < hi && alpha > 0);
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    const double u = uniform();
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Weighted discrete sampler over a fixed set of outcomes (linear scan;
/// intended for small category counts such as job-size classes).
class DiscreteSampler {
 public:
  DiscreteSampler() = default;

  explicit DiscreteSampler(std::span<const double> weights) {
    ISTC_EXPECTS(!weights.empty());
    cumulative_.reserve(weights.size());
    double total = 0;
    for (double w : weights) {
      ISTC_EXPECTS(w >= 0);
      total += w;
      cumulative_.push_back(total);
    }
    ISTC_EXPECTS(total > 0);
    for (double& c : cumulative_) c /= total;
    cumulative_.back() = 1.0;  // guard against rounding
  }

  std::size_t operator()(Rng& rng) const {
    ISTC_EXPECTS(!cumulative_.empty());
    const double u = rng.uniform();
    for (std::size_t i = 0; i + 1 < cumulative_.size(); ++i) {
      if (u < cumulative_[i]) return i;
    }
    return cumulative_.size() - 1;
  }

  std::size_t size() const { return cumulative_.size(); }
  bool empty() const { return cumulative_.empty(); }

 private:
  std::vector<double> cumulative_;
};

}  // namespace istc
