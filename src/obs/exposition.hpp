#pragma once

#include <string>
#include <string_view>

/// \file exposition.hpp
/// Prometheus text-format (0.0.4) writer: the `GET /metrics` body
/// builder.  Deliberately dumb — it formats lines; the caller (Session's
/// reading list) decides what to publish and under which names.

namespace istc::obs {

class PrometheusWriter {
 public:
  /// Emit "# HELP"/"# TYPE" headers for a metric family.  `type` is one
  /// of counter / gauge / summary / untyped.
  void family(std::string_view name, std::string_view type,
              std::string_view help);

  /// A "name value" sample line, or "name{labels} value" when `labels`
  /// (the raw body between the braces, e.g. "quantile=\"0.99\"") is
  /// not empty.
  void sample(std::string_view name, std::string_view labels, double value);

  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace istc::obs
