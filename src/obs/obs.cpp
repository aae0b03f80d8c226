#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace istc::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::uint64_t> g_next_track{1};

/// The span recorder: one ring of the newest kRingCapacity records and
/// one duration histogram per span name, all behind one mutex.
struct Recorder {
  std::mutex mu;
  std::array<SpanRecord, kRingCapacity> ring{};
  std::uint64_t pushed = 0;
  /// Span names are string literals, so the pointer is the key; equal
  /// names behind distinct pointers merge in profile_snapshot().
  std::map<const char*, metrics::Log2Histogram> profile;

  /// Records pushed out by newer ones, which is also the push index of
  /// the oldest record the ring still holds.
  std::uint64_t dropped() const {
    return pushed > kRingCapacity ? pushed - kRingCapacity : 0;
  }
};

Recorder& recorder() {
  static Recorder* r = new Recorder();  // leaked: usable during exit
  return *r;
}

thread_local TraceContext t_context;
/// The calling thread's track in the exported trace; 0 until its first
/// span closes.
thread_local std::uint64_t t_track = 0;

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

TraceContext current_context() { return t_context; }

ScopedContext::ScopedContext(TraceContext ctx)
    : saved_(t_context), active_(enabled()) {
  if (active_) t_context = ctx;
}

ScopedContext::~ScopedContext() {
  if (active_) t_context = saved_;
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t arg)
    : name_(name), arg_(arg) {
  if (!enabled()) return;
  active_ = true;
  saved_ = t_context;
  mine_.trace = saved_.trace != 0
                    ? saved_.trace
                    : g_next_trace.fetch_add(1, std::memory_order_relaxed);
  mine_.span = g_next_span.fetch_add(1, std::memory_order_relaxed);
  t_context = mine_;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  if (t_track == 0) {
    t_track = g_next_track.fetch_add(1, std::memory_order_relaxed);
  }
  SpanRecord r;
  r.name = name_;
  r.trace = mine_.trace;
  r.id = mine_.span;
  r.parent = saved_.span;
  r.track = t_track;
  r.start_ns = start_ns_;
  r.end_ns = now_ns();
  r.arg = arg_;
  Recorder& rec = recorder();
  {
    std::lock_guard lk(rec.mu);
    rec.ring[rec.pushed++ % kRingCapacity] = r;
    rec.profile[name_].add(r.end_ns - r.start_ns);
  }
  t_context = saved_;
}

TraceContext ScopedSpan::context() const {
  return active_ ? mine_ : t_context;
}

void traced_for(ThreadPool* pool, std::size_t n, const char* name,
                const std::function<void(std::size_t)>& fn) {
  const TraceContext ctx = current_context();
  const auto traced = [&fn, name, ctx](std::size_t i) {
    ScopedContext adopt(ctx);
    ScopedSpan span(name, static_cast<std::int64_t>(i));
    fn(i);
  };
  if (pool != nullptr) {
    parallel_for(*pool, n, traced);
  } else {
    for (std::size_t i = 0; i < n; ++i) traced(i);
  }
}

RecorderStats recorder_stats() {
  Recorder& rec = recorder();
  std::lock_guard lk(rec.mu);
  return {rec.pushed, rec.dropped()};
}

std::vector<StageProfile> profile_snapshot() {
  std::map<std::string, metrics::Log2Histogram> merged;
  {
    Recorder& rec = recorder();
    std::lock_guard lk(rec.mu);
    for (const auto& [name, h] : rec.profile) {
      std::string label = name;
      std::replace(label.begin(), label.end(), '.', '_');
      merged[label].merge(h);
    }
  }
  std::vector<StageProfile> out;
  out.reserve(merged.size());
  for (auto& [label, h] : merged) out.push_back({label, h});
  return out;
}

void reset() {
  Recorder& rec = recorder();
  std::lock_guard lk(rec.mu);
  rec.pushed = 0;
  rec.profile.clear();
}

void write_chrome_spans(std::ostream& out) {
  // Copy the live records, oldest first, so formatting holds no lock.
  std::vector<SpanRecord> spans;
  {
    Recorder& rec = recorder();
    std::lock_guard lk(rec.mu);
    spans.reserve(rec.pushed - rec.dropped());
    for (std::uint64_t i = rec.dropped(); i < rec.pushed; ++i) {
      spans.push_back(rec.ring[i % kRingCapacity]);
    }
  }
  std::set<std::uint64_t> tracks;
  for (const SpanRecord& r : spans) tracks.insert(r.track);
  out << "[";
  bool first = true;
  const auto emit = [&](const std::string& json) {
    if (!first) out << ",\n";
    first = false;
    out << json;
  };
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"istc obs\"}}");
  char buf[512];
  for (const std::uint64_t t : tracks) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%" PRIu64 ",\"args\":{\"name\":\"obs-thread-%" PRIu64
                  "\"}}",
                  t, t);
    emit(buf);
  }
  for (const SpanRecord& r : spans) {
    std::snprintf(
        buf, sizeof buf,
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
        ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%" PRIu64
        ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"arg\":%" PRId64 "}}",
        r.name != nullptr ? r.name : "?", r.track,
        static_cast<double>(r.start_ns) / 1000.0,
        static_cast<double>(r.end_ns - r.start_ns) / 1000.0, r.trace, r.id,
        r.parent, r.arg);
    emit(buf);
  }
  out << "]\n";
}

void write_chrome_spans_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_chrome_spans(out);
}

}  // namespace istc::obs
