#include "obs/exposition.hpp"

#include <cmath>
#include <cstdio>

namespace istc::obs {

namespace {

/// Prometheus floats: plain shortest-ish representation; integers stay
/// integral so counters read naturally.
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

void PrometheusWriter::family(std::string_view name, std::string_view type,
                              std::string_view help) {
  out_ += "# HELP ";
  out_ += name;
  out_ += ' ';
  out_ += help;
  out_ += "\n# TYPE ";
  out_ += name;
  out_ += ' ';
  out_ += type;
  out_ += '\n';
}

void PrometheusWriter::sample(std::string_view name, std::string_view labels,
                              double value) {
  out_ += name;
  if (!labels.empty()) {
    out_ += '{';
    out_ += labels;
    out_ += '}';
  }
  out_ += ' ';
  out_ += format_value(value);
  out_ += '\n';
}

}  // namespace istc::obs
