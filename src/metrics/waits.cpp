#include "metrics/waits.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace istc::metrics {

WaitStats wait_stats(std::span<const sched::JobRecord> records) {
  std::vector<double> waits, efs;
  for (const auto& r : records) {
    if (r.interstitial()) continue;
    waits.push_back(static_cast<double>(r.wait()));
    efs.push_back(r.expansion_factor());
  }
  WaitStats s;
  s.jobs = waits.size();
  if (waits.empty()) return s;
  const Summary ws(std::move(waits));
  const Summary es(std::move(efs));
  s.avg_wait_s = ws.mean();
  s.median_wait_s = ws.median();
  s.avg_ef = es.mean();
  s.median_ef = es.median();
  return s;
}

std::vector<sched::JobRecord> largest_native(
    std::span<const sched::JobRecord> records, double fraction) {
  std::vector<sched::JobRecord> natives;
  for (const auto& r : records) {
    if (!r.interstitial()) natives.push_back(r);
  }
  std::sort(natives.begin(), natives.end(),
            [](const sched::JobRecord& a, const sched::JobRecord& b) {
              return a.cpu_seconds() > b.cpu_seconds();
            });
  const auto keep = static_cast<std::size_t>(
      fraction * static_cast<double>(natives.size()) + 0.5);
  natives.resize(std::max<std::size_t>(1, std::min(keep, natives.size())));
  return natives;
}

std::vector<double> native_waits(std::span<const sched::JobRecord> records) {
  std::vector<double> waits;
  for (const auto& r : records) {
    if (!r.interstitial()) waits.push_back(static_cast<double>(r.wait()));
  }
  return waits;
}

Log10Histogram wait_histogram(std::span<const sched::JobRecord> records,
                              std::size_t decades) {
  Log10Histogram h(decades);
  h.add_all(native_waits(records));
  return h;
}

}  // namespace istc::metrics
