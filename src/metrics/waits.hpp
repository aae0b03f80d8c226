#pragma once

#include <span>
#include <vector>

#include "sched/record.hpp"
#include "util/histogram.hpp"

/// \file waits.hpp
/// Native-job impact metrics: wait times and expansion factors, overall and
/// for the "5% largest" jobs (the paper measures size in CPU-seconds).

namespace istc::metrics {

/// The four numbers of each Table 5 block.
struct WaitStats {
  double avg_wait_s = 0.0;
  double median_wait_s = 0.0;
  double avg_ef = 0.0;
  double median_ef = 0.0;
  std::size_t jobs = 0;
};

/// Stats over native records (interstitial records are ignored).
WaitStats wait_stats(std::span<const sched::JobRecord> records);

/// The fraction (e.g. 0.05) of native jobs largest by CPU-seconds.
std::vector<sched::JobRecord> largest_native(
    std::span<const sched::JobRecord> records, double fraction);

/// Native wait times in seconds (for histograms / distribution plots).
std::vector<double> native_waits(std::span<const sched::JobRecord> records);

/// The paper's Figs. 5-6 histogram: native waits binned by log10(seconds).
Log10Histogram wait_histogram(std::span<const sched::JobRecord> records,
                              std::size_t decades = 6);

}  // namespace istc::metrics
