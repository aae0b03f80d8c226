#include "obs/profiler.hpp"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>

namespace istc::obs {

namespace {

constexpr int kStages = static_cast<int>(Stage::kCount);

constexpr const char* kStageLabels[kStages] = {
    "sweep_prefix",  "sweep_fork",     "sweep_arm",
    "epoch_advance", "epoch_boundary",
    "ingest_apply",  "ingest_rewind",
    "query_capture", "query_verdict",
};

struct ThreadProfile {
  std::array<metrics::Log2Histogram, kStages> hist;
};

struct ProfileRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadProfile>> threads;
};

ProfileRegistry& registry() {
  static ProfileRegistry* r = new ProfileRegistry();
  return *r;
}

std::atomic<std::uint64_t> g_reset_epoch{0};

ThreadProfile& my_profile() {
  struct Slot {
    std::shared_ptr<ThreadProfile> profile;
    std::uint64_t epoch = 0;
  };
  thread_local Slot slot;
  const std::uint64_t epoch = g_reset_epoch.load(std::memory_order_acquire);
  if (!slot.profile || slot.epoch != epoch) {
    slot.profile = std::make_shared<ThreadProfile>();
    slot.epoch = epoch;
    ProfileRegistry& reg = registry();
    std::lock_guard lk(reg.mu);
    reg.threads.push_back(slot.profile);
  }
  return *slot.profile;
}

}  // namespace

const char* stage_label(Stage s) {
  const int i = static_cast<int>(s);
  return (i >= 0 && i < kStages) ? kStageLabels[i] : "?";
}

void observe_stage_us(Stage s, std::uint64_t us) {
  if (!enabled()) return;
  my_profile().hist[static_cast<std::size_t>(s)].add(us);
}

ScopedTimer::ScopedTimer(Stage s) : stage_(s), active_(enabled()) {
  if (active_) start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  my_profile().hist[static_cast<std::size_t>(stage_)].add(
      (now_ns() - start_ns_) / 1000);
}

metrics::Log2Histogram stage_histogram(Stage s) {
  metrics::Log2Histogram merged;
  ProfileRegistry& reg = registry();
  std::lock_guard lk(reg.mu);
  for (const auto& t : reg.threads) {
    merged.merge(t->hist[static_cast<std::size_t>(s)]);
  }
  return merged;
}

std::vector<StageProfile> profile_snapshot() {
  std::array<metrics::Log2Histogram, kStages> merged;
  {
    ProfileRegistry& reg = registry();
    std::lock_guard lk(reg.mu);
    for (const auto& t : reg.threads) {
      for (int s = 0; s < kStages; ++s) merged[s].merge(t->hist[s]);
    }
  }
  std::vector<StageProfile> out;
  for (int s = 0; s < kStages; ++s) {
    if (merged[s].total() == 0) continue;
    StageProfile p;
    p.stage = static_cast<Stage>(s);
    p.label = kStageLabels[s];
    p.count = merged[s].total();
    p.total_us = merged[s].sum();
    p.p50_us = merged[s].quantile(0.50);
    p.p90_us = merged[s].quantile(0.90);
    p.p99_us = merged[s].quantile(0.99);
    out.push_back(p);
  }
  return out;
}

void reset_profiles() {
  ProfileRegistry& reg = registry();
  std::lock_guard lk(reg.mu);
  reg.threads.clear();
  g_reset_epoch.fetch_add(1, std::memory_order_release);
}

}  // namespace istc::obs
