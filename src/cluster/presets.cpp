#include "cluster/presets.hpp"

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace istc::cluster {

const char* site_name(Site site) {
  switch (site) {
    case Site::kRoss: return "Ross";
    case Site::kBlueMountain: return "Blue Mountain";
    case Site::kBluePacific: return "Blue Pacific";
  }
  ISTC_ASSERT(false);
  return "?";
}

std::vector<Site> all_sites() {
  return {Site::kRoss, Site::kBlueMountain, Site::kBluePacific};
}

std::optional<Site> parse_site(std::string_view token) {
  if (token == "ross") return Site::kRoss;
  if (token == "bluemtn" || token == "bluemountain") return Site::kBlueMountain;
  if (token == "bluepac" || token == "bluepacific") return Site::kBluePacific;
  return std::nullopt;
}

MachineSpec machine_spec(Site site) {
  switch (site) {
    case Site::kRoss:
      // 256 @ 0.533 + 1180 @ 0.600 -> capacity-weighted 0.588 GHz.
      return {.name = "Ross",
              .site = "Sandia",
              .queue_system = "PBS",
              .cpus = 1436,
              .clock_ghz = 0.588};
    case Site::kBlueMountain:
      return {.name = "Blue Mountain",
              .site = "Los Alamos",
              .queue_system = "LSF",
              .cpus = 4662,
              .clock_ghz = 0.262};
    case Site::kBluePacific:
      return {.name = "Blue Pacific",
              .site = "Livermore",
              .queue_system = "DPCS",
              .cpus = 926,
              .clock_ghz = 0.369};
  }
  ISTC_ASSERT(false);
  return {};
}

SiteTargets site_targets(Site site) {
  switch (site) {
    case Site::kRoss: return {.utilization = 0.631, .span_days = 40.7, .jobs = 4423};
    case Site::kBlueMountain:
      return {.utilization = 0.790, .span_days = 84.2, .jobs = 7763};
    case Site::kBluePacific:
      return {.utilization = 0.907, .span_days = 63.0, .jobs = 12761};
  }
  ISTC_ASSERT(false);
  return {};
}

SimTime site_span(Site site) {
  return static_cast<SimTime>(site_targets(site).span_days *
                              static_cast<double>(kSecondsPerDay));
}

DowntimeCalendar site_downtime(Site site) {
  // ~10-hour maintenance window roughly every 10 days: about 4% downtime,
  // consistent with the Fig. 4 outage dips.  Seeded per site.
  Rng rng(0xD0DEC0DEULL + static_cast<std::uint64_t>(site) * 977);
  return DowntimeCalendar::periodic(/*period=*/days(10), /*duration=*/hours(10),
                                    site_span(site), rng);
}

Machine make_machine(Site site) {
  return Machine(machine_spec(site), site_downtime(site));
}

}  // namespace istc::cluster
