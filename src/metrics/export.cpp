#include "metrics/export.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace istc::metrics {

void write_swf_records(std::ostream& out,
                       std::span<const sched::JobRecord> records,
                       const std::string& header_comment) {
  if (!header_comment.empty()) {
    std::istringstream lines(header_comment);
    std::string l;
    while (std::getline(lines, l)) out << "; " << l << '\n';
  }
  std::uint64_t seq = 0;
  for (const auto& r : records) {
    const int queue = r.interstitial() ? 2 : 1;
    out << ++seq << ' ' << r.job.submit << ' ' << r.wait() << ' '
        << r.job.runtime << ' ' << r.job.cpus << ' ' << -1 << ' ' << -1
        << ' ' << r.job.cpus << ' ' << r.job.estimate << ' ' << -1 << ' '
        << 1 << ' ' << r.job.user << ' ' << r.job.group << ' ' << -1 << ' '
        << queue << ' ' << -1 << ' ' << -1 << ' ' << -1 << '\n';
  }
}

void write_swf_records_file(const std::string& path,
                            std::span<const sched::JobRecord> records,
                            const std::string& header_comment) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_swf_records_file: cannot open " + path);
  }
  write_swf_records(out, records, header_comment);
}

}  // namespace istc::metrics
