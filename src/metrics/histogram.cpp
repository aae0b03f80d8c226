#include "metrics/histogram.hpp"

#include "util/assert.hpp"

namespace istc::metrics {

std::string bucket_label(int k) {
  ISTC_EXPECTS(k >= 0 && k < Log2Histogram::kBuckets);
  if (k == 0) return "0";
  // Appending instead of "literal" + std::string sidesteps a GCC 12
  // -Wrestrict false positive inside libstdc++.
  std::string label = "[";
  label += std::to_string(Log2Histogram::bucket_lo(k));
  label += ',';
  label += std::to_string(Log2Histogram::bucket_hi(k));
  label += ')';
  return label;
}

}  // namespace istc::metrics
