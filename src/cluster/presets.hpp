#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/machine.hpp"
#include "util/time.hpp"

/// \file presets.hpp
/// The three ASCI machines of the paper's Table 1.
///
///            Ross        Blue Mountain   Blue Pacific
///   site     Sandia      Los Alamos      Livermore
///   CPUs     1436        4662            926 (subset)
///   clock    0.588 GHz*  0.262 GHz       0.369 GHz
///   TCycles  0.844       1.221           0.342
///   util     .631        .790            .907
///   span     40.7 d      84.2 d          63 d
///   jobs     4,423       7,763           12,761
///   queue    PBS         LSF             DPCS
///   (*) 256 @ 533 MHz + 1180 @ 600 MHz; the paper treats the machine as
///       homogeneous at the capacity-weighted clock, and so do we.

namespace istc::cluster {

/// Site identifiers used across workload/scheduler presets.
enum class Site { kRoss, kBlueMountain, kBluePacific };

const char* site_name(Site site);
std::vector<Site> all_sites();

/// The site a command-line token names: "ross", "bluemtn" or
/// "bluemountain", "bluepac" or "bluepacific"; nullopt otherwise.
std::optional<Site> parse_site(std::string_view token);

/// Static spec of the machine (no downtime attached).
MachineSpec machine_spec(Site site);

/// Target figures from Table 1 used for calibration and reporting.
struct SiteTargets {
  double utilization = 0.0;   ///< Table 1 "Utilization"
  double span_days = 0.0;     ///< Table 1 "times days"
  int jobs = 0;               ///< Table 1 "Jobs"
};

SiteTargets site_targets(Site site);

/// Log span of the site's trace in seconds.
SimTime site_span(Site site);

/// A deterministic maintenance calendar for the site: roughly weekly
/// half-day windows, seeded per site so every experiment sees the same
/// outages (the paper's utilization figures include outages).
DowntimeCalendar site_downtime(Site site);

/// Convenience: machine with its downtime calendar attached.
Machine make_machine(Site site);

}  // namespace istc::cluster
