#pragma once

#include <cstdint>
#include <string>

#include "cluster/downtime.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

/// \file machine.hpp
/// The machine model: N identical CPUs at clock C, space-shared (a job owns
/// its CPUs exclusively from start to completion — the paper's jobs are
/// non-preemptive and dedicated), plus its planned-outage calendar.  Both
/// are fixed for a run; who holds which CPUs is the scheduler's state
/// (sched::BatchScheduler::free_cpus).

namespace istc::cluster {

/// Work is measured in clock cycles per CPU, the paper's machine-neutral
/// unit (1 peta-cycle = 1e15 ticks).  A "120 s @ 1 GHz" interstitial job
/// carries 120e9 cycles per CPU and runs 120/C seconds on a C-GHz machine.
using Cycles = double;

inline constexpr Cycles kGiga = 1e9;
inline constexpr Cycles kTera = 1e12;
inline constexpr Cycles kPeta = 1e15;

/// Static description of a machine (Table 1 row).
struct MachineSpec {
  std::string name;
  std::string site;
  std::string queue_system;  ///< e.g. "PBS", "LSF", "DPCS"
  int cpus = 0;
  double clock_ghz = 0.0;

  /// Machine capacity proxy, Tera-cycles/s = cpus * clock (Table 1).
  double tera_cycles() const {
    return static_cast<double>(cpus) * clock_ghz * kGiga / kTera;
  }

  /// Seconds to execute `work` cycles on one CPU of this machine,
  /// rounded up so work is never lost; at least 1 s.
  Seconds runtime_for(Cycles work) const {
    ISTC_EXPECTS(clock_ghz > 0);
    const double secs = work / (clock_ghz * kGiga);
    auto s = static_cast<Seconds>(secs);
    if (static_cast<double>(s) < secs) ++s;
    return s > 0 ? s : 1;
  }

  /// Cycles one CPU executes in `dur` seconds.
  Cycles cycles_in(Seconds dur) const {
    return static_cast<double>(dur) * clock_ghz * kGiga;
  }
};

/// A machine as the scheduler sees it: its spec and downtime calendar.
/// Immutable once built.
class Machine {
 public:
  Machine(MachineSpec spec, DowntimeCalendar downtime = {})
      : spec_(std::move(spec)), downtime_(std::move(downtime)) {
    ISTC_EXPECTS(spec_.cpus > 0);
  }

  const MachineSpec& spec() const { return spec_; }
  const DowntimeCalendar& downtime() const { return downtime_; }
  int total_cpus() const { return spec_.cpus; }

 private:
  MachineSpec spec_;
  DowntimeCalendar downtime_;
};

}  // namespace istc::cluster
