// Table 8 (second, "limited"): continual interstitial computing on Blue
// Mountain with submission restricted to instantaneous utilization caps of
// 90%, 95% and 98% for the whole run (32-CPU x 458 s jobs).  Each column is
// core::continual_run(site, 32, 120, cap), the runs
// PaperProperties.UtilizationCapTradeoff pins.  The exit code is the
// paper's claim: interstitial throughput falls strictly as the cap
// tightens, and native utilization stays that of the uncapped run.

#include <cmath>
#include <iterator>

#include "common.hpp"

int main() {
  using namespace istc;
  bench::print_preamble(
      "Table 8 (limited) — Capped continual interstitial, Blue Mountain",
      "Interstitial jobs submitted only while (busy + new)/N stays below "
      "the cap, over the whole run.");

  const auto site = cluster::Site::kBlueMountain;
  const double caps[] = {0.90, 0.95, 0.98, 1.0};
  constexpr std::size_t kUnlimited = std::size(caps) - 1;
  const sched::RunResult* runs[std::size(caps)] = {};
  for (std::size_t i = 0; i < std::size(caps); ++i) {
    runs[i] = &core::continual_run(site, 32, 120, caps[i]);
  }
  const auto jobs = [&runs](std::size_t i) {
    return static_cast<double>(runs[i]->interstitial_count());
  };
  const double unlimited_native = bench::native_util_of(*runs[kUnlimited]);

  const Seconds runtime = core::ProjectSpec::continual_stream(32, 120, 1)
                              .runtime_on(runs[kUnlimited]->machine);
  Table t("32CPU x " + std::to_string(runtime) + "s stream");
  t.headers({"", "Util < 90%", "Util < 95%", "Util < 98%", "Unlimited"});
  std::vector<std::string> inter{"Interstitial jobs"},
      drop{"Drop vs unlimited"}, native{"Native jobs"},
      overall{"Overall Utilization"}, nutil{"Native Utilization"},
      waits{"Median wait (ks) all / 5% largest"};
  // The claims: each tighter cap costs jobs, and natives keep the
  // utilization they have without a cap.
  bool falls = true;
  bool native_held = true;
  for (std::size_t i = 0; i < std::size(caps); ++i) {
    const sched::RunResult& run = *runs[i];
    inter.push_back(
        Table::integer(static_cast<long long>(run.interstitial_count())));
    drop.push_back(i == kUnlimited
                       ? "-"
                       : Table::num(100.0 * (1.0 - jobs(i) / jobs(kUnlimited)),
                                    1) + "%");
    native.push_back(
        Table::integer(static_cast<long long>(run.native_count())));
    overall.push_back(Table::num(bench::overall_util(run), 3));
    nutil.push_back(Table::num(bench::native_util_of(run), 3));
    waits.push_back(bench::median_waits_cell(run.records));
    if (i > 0) falls = falls && jobs(i - 1) < jobs(i);
    native_held = native_held &&
                  std::fabs(bench::native_util_of(run) - unlimited_native) <=
                      0.005;
  }
  for (auto* row : {&inter, &drop, &native, &overall, &nutil, &waits}) {
    t.row(*row);
  }
  t.print();

  std::printf(
      "\nNative-only baseline utilization: %.3f\n"
      "Paper: the 90%% cap costs ~40%% of the interstitial jobs, 95%% ~20%%,\n"
      "98%% ~10%%, and native jobs keep their utilization.\n"
      "interstitial jobs fall strictly as the cap tightens: %s\n"
      "native utilization within 0.005 of the uncapped run's at every cap: "
      "%s\n",
      bench::overall_util(core::native_baseline(site)), falls ? "yes" : "NO",
      native_held ? "yes" : "NO");
  return (falls && native_held) ? 0 : 1;
}
