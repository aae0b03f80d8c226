// Figure 4: Blue Mountain utilization over the log, without (top) and with
// (bottom) continual interstitial computing.  The hourly series is
// metrics::utilization_series of the runs Table 6 and Figs. 5-6 read
// (core::native_baseline and core::continual_run(site, 32, 120)).  The
// exit code is the paper's claim: the continual stream raises both the
// hours at >= 95% utilization and the mean utilization.

#include "common.hpp"
#include "util/csv.hpp"

namespace {

using namespace istc;

std::string strip_chart(const std::vector<double>& series) {
  // One character per sample: utilization decile (0-9), '#' for >= 0.95.
  std::string s;
  s.reserve(series.size());
  for (double u : series) {
    if (u >= 0.95) {
      s += '#';
    } else {
      s += static_cast<char>('0' + static_cast<int>(u * 10.0));
    }
  }
  return s;
}

std::vector<double> daily(const std::vector<double>& hourly) {
  std::vector<double> out;
  for (std::size_t i = 0; i < hourly.size(); i += 24) {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t k = i; k < std::min(i + 24, hourly.size()); ++k) {
      sum += hourly[k];
      ++n;
    }
    out.push_back(sum / static_cast<double>(n));
  }
  return out;
}

std::vector<double> hourly(const sched::RunResult& run) {
  return metrics::utilization_series(run.records, run.machine.cpus, run.span);
}

}  // namespace

int main() {
  const std::string csv_path = bench::artifact_path("fig4_util.csv");
  bench::print_preamble(
      "Figure 4 — Blue Mountain utilization, native vs continual",
      ("Hourly utilization from the job records; dips to zero are "
       "outages.  CSV: " + csv_path).c_str());

  const auto site = cluster::Site::kBlueMountain;
  const auto& base = core::native_baseline(site);
  const auto& with_i = core::continual_run(site, 32, 120);
  const auto u0 = hourly(base);
  const auto u1 = hourly(with_i);

  try {
    CsvWriter csv(csv_path);
    csv.header({"hour", "native_only", "with_interstitial"});
    for (std::size_t h = 0; h < u0.size(); ++h) {
      csv.row({static_cast<double>(h), u0[h], u1[h]});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "(CSV not written: %s)\n", e.what());
  }

  std::printf("daily-average utilization, one char per day "
              "(0-9 = deciles, # = >=95%%):\n\n");
  std::printf("native only      : %s\n", strip_chart(daily(u0)).c_str());
  std::printf("with interstitial: %s\n\n", strip_chart(daily(u1)).c_str());

  // Distribution summary matching the paper's visual claim: with
  // interstitial jobs the machine sits at ~100% except during outages.
  std::size_t h0_sat = 0, h1_sat = 0, h0_idle = 0, h1_idle = 0;
  for (double u : u0) {
    h0_sat += u >= 0.95;
    h0_idle += u <= 0.05;
  }
  for (double u : u1) {
    h1_sat += u >= 0.95;
    h1_idle += u <= 0.05;
  }
  const double mean0 = bench::overall_util(base);
  const double mean1 = bench::overall_util(with_i);
  Table t;
  t.headers({"", "native only", "with interstitial"});
  t.row({"mean utilization", Table::num(mean0, 3), Table::num(mean1, 3)});
  t.row({"hours at >= 95%",
         Table::integer(static_cast<long long>(h0_sat)),
         Table::integer(static_cast<long long>(h1_sat))});
  t.row({"hours at <= 5% (outages)",
         Table::integer(static_cast<long long>(h0_idle)),
         Table::integer(static_cast<long long>(h1_idle))});
  t.row({"total hours", Table::integer(static_cast<long long>(u0.size())),
         Table::integer(static_cast<long long>(u1.size()))});
  t.print();
  const bool ok = h1_sat > h0_sat && mean1 > mean0;
  std::printf(
      "\nPaper shape check: with interstitial computing the machine runs at\n"
      "essentially 100%% except for outages (the bottom panel of Fig. 4).\n"
      "continual stream raises hours at >= 95%% and mean utilization: %s\n",
      ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
