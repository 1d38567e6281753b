#include "common/query_registry.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/metrics.h"

namespace rdfa {

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* registry = new QueryRegistry();
  return *registry;
}

QueryRegistry::Handle QueryRegistry::Register(QueryContext* ctx,
                                              const std::string& query_text,
                                              uint64_t query_hash,
                                              uint64_t snapshot_epoch) {
  Handle handle;
  std::lock_guard<std::mutex> lock(mu_);
  size_t index = kSlots;
  for (size_t i = 0; i < kSlots; ++i) {
    if (!slots_[i].occupied.load(std::memory_order_relaxed)) {
      index = i;
      break;
    }
  }
  if (index == kSlots) return handle;  // pool full: run unregistered

  Slot& slot = slots_[index];
  const int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Seqlock write: odd while the metadata is inconsistent.
  constexpr auto kRelaxed = std::memory_order_relaxed;
  slot.seq.fetch_add(1, std::memory_order_acquire);
  slot.id.store(id, kRelaxed);
  slot.query_hash.store(query_hash, kRelaxed);
  slot.snapshot_epoch.store(snapshot_epoch, kRelaxed);
  slot.start_ticks.store(
      QueryContext::Clock::now().time_since_epoch().count(), kRelaxed);
  slot.has_deadline.store(ctx->has_deadline(), kRelaxed);
  slot.deadline_ticks.store(ctx->deadline().time_since_epoch().count(),
                            kRelaxed);
  uint64_t words[kHeadWords] = {};
  std::memcpy(words, query_text.data(),
              std::min(query_text.size(), sizeof(words) - 1));
  for (size_t w = 0; w < kHeadWords; ++w) {
    slot.head[w].store(words[w], kRelaxed);
  }
  slot.progress.stage.store(nullptr, std::memory_order_relaxed);
  slot.progress.rows.store(0, std::memory_order_relaxed);
  slot.cancel_ctx = *ctx;  // shares cancellation state: Kill() cancels it
  slot.occupied.store(true, std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_release);

  ctx->set_progress(&slot.progress);

  MetricsRegistry::Global()
      .GetGauge("rdfa_inflight_queries",
                "Queries currently executing (registered in the live query "
                "registry)")
      .Set(static_cast<double>(CountOccupiedLocked()));

  handle.registry_ = this;
  handle.slot_ = index;
  handle.id_ = id;
  return handle;
}

void QueryRegistry::Unregister(size_t slot_index, int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[slot_index];
  if (slot.id.load(std::memory_order_relaxed) != id ||
      !slot.occupied.load(std::memory_order_relaxed)) {
    return;
  }
  slot.seq.fetch_add(1, std::memory_order_acquire);
  slot.occupied.store(false, std::memory_order_relaxed);
  slot.cancel_ctx = QueryContext();  // drop the shared cancellation state
  slot.seq.fetch_add(1, std::memory_order_release);
  MetricsRegistry::Global()
      .GetGauge("rdfa_inflight_queries")
      .Set(static_cast<double>(CountOccupiedLocked()));
}

size_t QueryRegistry::CountOccupiedLocked() const {
  size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.occupied.load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

void QueryRegistry::Handle::Release() {
  if (registry_ != nullptr) {
    registry_->Unregister(slot_, id_);
    registry_ = nullptr;
  }
}

std::vector<InflightQuery> QueryRegistry::Snapshot() const {
  using Clock = QueryContext::Clock;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  std::vector<InflightQuery> out;
  const auto now = Clock::now();
  for (const Slot& slot : slots_) {
    InflightQuery q;
    bool ok = false;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const uint64_t s0 = slot.seq.load(std::memory_order_acquire);
      if (s0 & 1) continue;  // mid-write; retry
      if (!slot.occupied.load(kRelaxed)) break;
      q.id = slot.id.load(kRelaxed);
      q.query_hash = slot.query_hash.load(kRelaxed);
      q.snapshot_epoch = slot.snapshot_epoch.load(kRelaxed);
      char head[sizeof(uint64_t) * kHeadWords];
      for (size_t w = 0; w < kHeadWords; ++w) {
        const uint64_t word = slot.head[w].load(kRelaxed);
        std::memcpy(head + w * sizeof(word), &word, sizeof(word));
      }
      q.head.assign(head, strnlen(head, sizeof(head)));
      const Clock::time_point start(
          Clock::duration(slot.start_ticks.load(kRelaxed)));
      q.elapsed_ms =
          std::chrono::duration<double, std::milli>(now - start).count();
      const Clock::time_point deadline(
          Clock::duration(slot.deadline_ticks.load(kRelaxed)));
      q.deadline_remaining_ms =
          slot.has_deadline.load(kRelaxed)
              ? std::chrono::duration<double, std::milli>(deadline - now)
                    .count()
              : std::numeric_limits<double>::infinity();
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_acquire) == s0) {
        ok = true;
        break;
      }
    }
    if (!ok) continue;
    // Relaxed telemetry — read outside the seqlock on purpose.
    q.stage = slot.progress.stage.load(std::memory_order_relaxed);
    q.rows = slot.progress.rows.load(std::memory_order_relaxed);
    out.push_back(std::move(q));
  }
  std::sort(out.begin(), out.end(),
            [](const InflightQuery& a, const InflightQuery& b) {
              return a.id < b.id;
            });
  return out;
}

bool QueryRegistry::Kill(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    if (slot.occupied.load(std::memory_order_relaxed) &&
        slot.id.load(std::memory_order_relaxed) == id) {
      slot.cancel_ctx.Cancel();
      MetricsRegistry::Global()
          .GetCounter("rdfa_queries_killed_total",
                      "Queries cancelled via the registry kill command")
          .Increment();
      return true;
    }
  }
  return false;
}

void QueryRegistry::UpdateStageGauges() {
  std::vector<InflightQuery> inflight = Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static const char* const kStageHelp =
      "In-flight queries currently in this execution stage";
  for (const InflightQuery& q : inflight) {
    if (q.stage != nullptr &&
        std::find(known_stages_.begin(), known_stages_.end(), q.stage) ==
            known_stages_.end()) {
      known_stages_.push_back(q.stage);
    }
  }
  for (const char* stage : known_stages_) {
    size_t n = 0;
    for (const InflightQuery& q : inflight) {
      if (q.stage == stage) ++n;
    }
    metrics
        .GetGaugeLabeled("rdfa_inflight_queries_by_stage", "stage", stage,
                         kStageHelp)
        .Set(static_cast<double>(n));
  }
}

}  // namespace rdfa
