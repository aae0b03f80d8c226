#pragma once

#include <cstdint>

/// \file hash.hpp
/// FNV-1a over 64-bit words: the one hash behind schedule fingerprints
/// (sched::schedule_hash), fleet hashes, and the what-if reference-arm
/// cache keys.  Pinned golden values depend on it bit-for-bit.

namespace istc::util {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Fold the eight bytes of `v`, least significant first, into `h`.
constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace istc::util
