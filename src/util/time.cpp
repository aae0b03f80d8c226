#include "util/time.hpp"

#include <cinttypes>
#include <cstdio>

namespace istc {

std::string format_duration(Seconds s) {
  const bool neg = s < 0;
  if (neg) s = -s;
  const std::int64_t d = s / kSecondsPerDay;
  const std::int64_t h = (s / kSecondsPerHour) % 24;
  const std::int64_t m = (s / kSecondsPerMinute) % 60;
  const std::int64_t sec = s % 60;
  char buf[64];
  if (d > 0) {
    std::snprintf(buf, sizeof buf, "%s%" PRId64 "d %02" PRId64 ":%02" PRId64
                  ":%02" PRId64, neg ? "-" : "", d, h, m, sec);
  } else {
    std::snprintf(buf, sizeof buf, "%s%02" PRId64 ":%02" PRId64 ":%02" PRId64,
                  neg ? "-" : "", h, m, sec);
  }
  return buf;
}

}  // namespace istc
