#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "metrics/histogram.hpp"
#include "util/thread_pool.hpp"

namespace istc::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_next_trace{1};

/// Distinct span-name pointers one ring profiles, well above the number
/// of span names in the program.  Spans under further names still
/// record, unprofiled.
constexpr std::size_t kProfileNames = 32;

/// Only the ring's owner writes a counter, so it stores load + d: no
/// read-modify-write, and a concurrent reader's load is race-free.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t d,
          std::memory_order order = std::memory_order_relaxed) {
  counter.store(counter.load(std::memory_order_relaxed) + d, order);
}

/// One span name's log2 histogram of nanoseconds, kept as owner-written
/// atomics so profile_snapshot() can read it while the owner writes.  The
/// owner stores min, max and sum before the bucket count, which it
/// releases; a reader acquires the counts first, so every value it counts
/// lies inside the range it then loads.
struct NameProfile {
  std::atomic<const char*> name{nullptr};
  std::array<std::atomic<std::uint64_t>, metrics::Log2Histogram::kBuckets>
      counts{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};

  void add(std::uint64_t ns) {
    if (ns < min.load(std::memory_order_relaxed)) {
      min.store(ns, std::memory_order_relaxed);
    }
    if (ns > max.load(std::memory_order_relaxed)) {
      max.store(ns, std::memory_order_relaxed);
    }
    bump(sum, ns);
    bump(counts[static_cast<std::size_t>(
             metrics::Log2Histogram::bucket_index(ns))],
         1, std::memory_order_release);
  }

  metrics::Log2Histogram load() const {
    std::uint64_t c[metrics::Log2Histogram::kBuckets];
    for (int k = 0; k < metrics::Log2Histogram::kBuckets; ++k) {
      c[k] = counts[static_cast<std::size_t>(k)].load(
          std::memory_order_acquire);
    }
    return metrics::Log2Histogram::from_counts(
        c, sum.load(std::memory_order_relaxed),
        min.load(std::memory_order_relaxed),
        max.load(std::memory_order_relaxed));
  }
};

/// One thread's span ring and per-name profile.  The owning thread writes
/// without locks.  While the owner is live, other threads read only
/// atomics: the pushed counter and the profile table (profile_snapshot);
/// export walks the slots only after quiesce.  A ring outlives its thread
/// and passes to the next new thread through the registry's free list.
struct ThreadRing {
  std::array<SpanRecord, kRingCapacity> slots{};
  std::atomic<std::uint64_t> pushed{0};
  std::array<NameProfile, kProfileNames> profile{};

  void push(const SpanRecord& r) {
    const std::uint64_t n = pushed.load(std::memory_order_relaxed);
    slots[n % kRingCapacity] = r;
    pushed.store(n + 1, std::memory_order_release);
  }

  /// Span names are string literals, so the pointer is the key; equal
  /// names behind distinct pointers merge in profile_snapshot().  A new
  /// name is published with release, after its zeroed counters.
  void observe(const char* name, std::uint64_t ns) {
    for (NameProfile& p : profile) {
      const char* mine = p.name.load(std::memory_order_relaxed);
      if (mine == nullptr) {
        p.name.store(name, std::memory_order_release);
        mine = name;
      }
      if (mine == name) {
        p.add(ns);
        return;
      }
    }
  }
};

/// Every ring handed out since the last reset, in allocation order (the
/// export list), and those whose threads have exited.  shared_ptr keeps a
/// ring valid for a thread that still holds it across a reset.
struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::vector<std::shared_ptr<ThreadRing>> free;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

/// Epoch bumped by reset(): a thread holding a ring from before the reset
/// takes a new one instead of writing into a detached ring.
std::atomic<std::uint64_t> g_reset_epoch{0};

/// The calling thread's ring.  Its destructor runs at thread exit and
/// hands the ring back for the next new thread to adopt.
class ThreadSlot {
 public:
  ThreadSlot() = default;
  ThreadSlot(const ThreadSlot&) = delete;
  ThreadSlot& operator=(const ThreadSlot&) = delete;

  ~ThreadSlot() {
    if (!ring_) return;
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    if (epoch_ == g_reset_epoch.load(std::memory_order_relaxed)) {
      reg.free.push_back(std::move(ring_));
    }
  }

  ThreadRing& ring() {
    if (ring_ && epoch_ == g_reset_epoch.load(std::memory_order_acquire)) {
      return *ring_;
    }
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    epoch_ = g_reset_epoch.load(std::memory_order_relaxed);
    if (reg.free.empty()) {
      ring_ = std::make_shared<ThreadRing>();
      reg.rings.push_back(ring_);
    } else {
      ring_ = std::move(reg.free.back());
      reg.free.pop_back();
    }
    return *ring_;
  }

 private:
  std::shared_ptr<ThreadRing> ring_;
  std::uint64_t epoch_ = 0;
};

ThreadRing& my_ring() {
  thread_local ThreadSlot slot;
  return slot.ring();
}

thread_local TraceContext t_context;

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
  SpanRecord r;
  r.name = name_;
  r.trace = mine_.trace;
  r.id = mine_.span;
  r.parent = saved_.span;
  r.start_ns = start_ns_;
  r.end_ns = now_ns();
  r.arg = arg_;
  ThreadRing& ring = my_ring();
  ring.push(r);
  ring.observe(name_, r.end_ns - r.start_ns);
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
  RecorderStats s;
  Registry& reg = registry();
  std::lock_guard lk(reg.mu);
  s.threads = reg.rings.size();
  for (const auto& ring : reg.rings) {
    const std::uint64_t pushed = ring->pushed.load(std::memory_order_acquire);
    s.recorded += pushed;
    if (pushed > kRingCapacity) s.dropped += pushed - kRingCapacity;
  }
  return s;
}

std::vector<StageProfile> profile_snapshot() {
  std::map<std::string, metrics::Log2Histogram> merged;
  {
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    for (const auto& ring : reg.rings) {
      for (const NameProfile& p : ring->profile) {
        const char* name = p.name.load(std::memory_order_acquire);
        if (name == nullptr) break;
        std::string label = name;
        std::replace(label.begin(), label.end(), '.', '_');
        merged[label].merge(p.load());
      }
    }
  }
  std::vector<StageProfile> out;
  out.reserve(merged.size());
  for (auto& [label, h] : merged) out.push_back({label, h});
  return out;
}

void reset() {
  Registry& reg = registry();
  std::lock_guard lk(reg.mu);
  reg.rings.clear();
  reg.free.clear();
  g_reset_epoch.fetch_add(1, std::memory_order_release);
}

void write_chrome_spans(std::ostream& out) {
  // Snapshot the ring set under the lock; slot contents are read without
  // one, which is only sound because export runs on quiesced writers.
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    Registry& reg = registry();
    std::lock_guard lk(reg.mu);
    rings = reg.rings;
  }
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
  for (std::size_t t = 0; t < rings.size(); ++t) {
    const ThreadRing& ring = *rings[t];
    const std::uint64_t pushed = ring.pushed.load(std::memory_order_acquire);
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%zu,\"args\":{\"name\":\"obs-thread-%zu\"}}",
                  t + 1, t + 1);
    emit(buf);
    const std::uint64_t lo =
        pushed > kRingCapacity ? pushed - kRingCapacity : 0;
    for (std::uint64_t i = lo; i < pushed; ++i) {
      const SpanRecord& r = ring.slots[i % kRingCapacity];
      std::snprintf(
          buf, sizeof buf,
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%" PRIu64
          ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"arg\":%" PRId64
          "}}",
          r.name != nullptr ? r.name : "?", t + 1,
          static_cast<double>(r.start_ns) / 1000.0,
          static_cast<double>(r.end_ns - r.start_ns) / 1000.0, r.trace, r.id,
          r.parent, r.arg);
      emit(buf);
    }
  }
  out << "]\n";
}

void write_chrome_spans_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_chrome_spans(out);
}

}  // namespace istc::obs
