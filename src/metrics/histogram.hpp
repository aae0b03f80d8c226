#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

/// \file histogram.hpp
/// Log-bucketed histogram with power-of-two buckets: allocation-free,
/// integer-only, deterministic.  Bucket 0 holds the value 0; bucket k >= 1
/// holds [2^(k-1), 2^k), so any uint64 lands somewhere and the index is a
/// single std::bit_width.  The RunReport's completion histograms and the
/// daemon's wall-clock profiles share it.

namespace istc::metrics {

class Log2Histogram {
 public:
  /// Bucket 0 plus one bucket per possible bit width (1..64).
  static constexpr int kBuckets = 65;

  /// Which bucket a value lands in: 0 -> 0, v -> bit_width(v) otherwise.
  static constexpr int bucket_index(std::uint64_t v) {
    return v == 0 ? 0 : static_cast<int>(std::bit_width(v));
  }

  /// Inclusive lower edge of bucket k (0 for buckets 0 and 1's edge is 1).
  static constexpr std::uint64_t bucket_lo(int k) {
    return k == 0 ? 0 : std::uint64_t{1} << (k - 1);
  }

  /// Exclusive upper edge of bucket k.  Bucket 64's true edge (2^64) does
  /// not fit in a uint64; it is clamped to UINT64_MAX, whose value the
  /// bucket does contain.
  static constexpr std::uint64_t bucket_hi(int k) {
    if (k == 0) return 1;
    if (k >= 64) return ~std::uint64_t{0};
    return std::uint64_t{1} << k;
  }

  void add(std::uint64_t v) {
    ++counts_[bucket_index(v)];
    ++total_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  std::uint64_t count(int k) const { return counts_[k]; }
  std::uint64_t total() const { return total_; }
  /// Sum of observed values (wraps past 2^64 like any uint64 — callers
  /// observe bounded sim-time quantities for which that never triggers).
  std::uint64_t sum() const { return sum_; }
  /// Smallest / largest observed value; 0 for an empty histogram.
  std::uint64_t min() const { return total_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  /// Absorb another histogram's counts (src/obs merges the profiles of
  /// span names that share a label through this).
  void merge(const Log2Histogram& other) {
    for (int k = 0; k < kBuckets; ++k) counts_[k] += other.counts_[k];
    total_ += other.total_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  /// Approximate quantile by linear interpolation inside the log2 bucket
  /// holding rank q*(total-1), clamped into [min(), max()].  Resolution is
  /// the bucket width (a factor of two) — the HDR-histogram trade: O(1)
  /// memory, bounded relative error — and the clamp makes a histogram of
  /// one value read that value at every q.  Monotone in q by construction
  /// (interpolation is linear within a bucket, bucket ranges are disjoint
  /// and ordered, and clamping keeps order).  Returns 0 for an empty
  /// histogram; q is clamped to [0, 1].
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t cum = 0;
    for (int k = 0; k < kBuckets; ++k) {
      const std::uint64_t c = counts_[k];
      if (c == 0) continue;
      if (rank < static_cast<double>(cum + c)) {
        if (k == 0) return 0.0;  // bucket 0 holds only the value 0
        const double lo = static_cast<double>(bucket_lo(k));
        const double hi = static_cast<double>(bucket_hi(k));
        const double within =
            (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
        return clamp_observed(lo + within * (hi - lo));
      }
      cum += c;
    }
    return clamp_observed(static_cast<double>(bucket_hi(kBuckets - 1)));
  }

  /// First / last bucket with a nonzero count; -1 when empty.  Exporters
  /// emit only this range so a 65-bucket histogram stays compact.
  int first_nonzero() const {
    for (int k = 0; k < kBuckets; ++k) {
      if (counts_[k] != 0) return k;
    }
    return -1;
  }
  int last_nonzero() const {
    for (int k = kBuckets - 1; k >= 0; --k) {
      if (counts_[k] != 0) return k;
    }
    return -1;
  }

 private:
  double clamp_observed(double v) const {
    return std::clamp(v, static_cast<double>(min_), static_cast<double>(max_));
  }

  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  /// Observed range; an empty histogram holds the identities of min/max,
  /// so add() and merge() need no emptiness test.
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace istc::metrics
