#ifndef RDFA_COMMON_QUERY_REGISTRY_H_
#define RDFA_COMMON_QUERY_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_context.h"

namespace rdfa {

/// One sampled in-flight query, as returned by QueryRegistry::Snapshot().
struct InflightQuery {
  int64_t id = 0;               ///< registry-assigned, monotonically rising
  uint64_t query_hash = 0;      ///< FNV-1a of the query text (plan-cache key)
  std::string head;             ///< first bytes of the query text
  const char* stage = nullptr;  ///< most recent Check() stage (may be null)
  uint64_t rows = 0;            ///< rows produced so far
  double elapsed_ms = 0;        ///< wall time since Register()
  /// Milliseconds until the deadline; +infinity when none is set.
  double deadline_remaining_ms = 0;
  uint64_t snapshot_epoch = 0;  ///< MVCC epoch the query pinned (0 = none)
};

/// Process-wide registry of executing queries, built for lock-free
/// sampling: `ps` in the shell, the `rdfa_inflight_queries` gauges, and
/// slow-query triage all read it without ever blocking a query.
///
/// Design (DESIGN.md §15): a fixed pool of slots, each owning its
/// QueryProgress atomics *forever* — slots are reused but never freed, so a
/// sampler may dereference a progress pointer with no coordination against
/// query shutdown. Slot metadata (id, hash, head, deadline) is guarded by a
/// per-slot seqlock: writers (Register/Unregister, rare) bump the sequence
/// to odd, mutate, bump to even; Snapshot() retries a slot while the
/// sequence is odd or changed across the read. Every field inside the
/// seqlock is itself an atomic accessed with relaxed loads and stores, so a
/// read racing a write is a retry, never a data race. stage/rows ride
/// outside the seqlock as relaxed atomics — monotonic telemetry where a
/// momentarily stale read is fine. Register/Unregister/Kill serialize on one
/// mutex; that path runs twice per query and never contends with sampling.
class QueryRegistry {
 public:
  /// The process-wide registry (shell + endpoint share it).
  static QueryRegistry& Global();

  /// Capacity of the slot pool. Queries beyond this many in flight run
  /// unregistered (invisible to `ps`, still fully functional) rather than
  /// blocking admission on observability.
  static constexpr size_t kSlots = 64;

  /// RAII registration: attaches progress counters to `ctx` (so copies the
  /// caller hands to the executor publish stage/rows) and unregisters on
  /// destruction. A default-constructed or moved-from handle is inert.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept { *this = std::move(other); }
    Handle& operator=(Handle&& other) noexcept {
      Release();
      registry_ = other.registry_;
      slot_ = other.slot_;
      id_ = other.id_;
      other.registry_ = nullptr;
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { Release(); }

    /// The registry-assigned id (what `kill <id>` takes); -1 when inert.
    int64_t id() const { return registry_ != nullptr ? id_ : -1; }

   private:
    friend class QueryRegistry;
    void Release();
    QueryRegistry* registry_ = nullptr;
    size_t slot_ = 0;
    int64_t id_ = -1;
  };

  /// Registers an executing query and wires `ctx` (by pointer: the caller's
  /// context object is mutated so its copies share the progress slot).
  /// `query_text` is truncated into the slot's head buffer;
  /// `snapshot_epoch` is 0 when the query is not reading an MVCC snapshot.
  Handle Register(QueryContext* ctx, const std::string& query_text,
                  uint64_t query_hash, uint64_t snapshot_epoch);

  /// Lock-free sample of every in-flight query, ordered by id.
  std::vector<InflightQuery> Snapshot() const;

  /// Cancels the query with the given id (its next Check() unwinds with
  /// Status::Cancelled). Returns false when no such query is in flight.
  bool Kill(int64_t id);

  /// Refreshes `rdfa_inflight_queries_by_stage{stage="..."}` gauges from a
  /// fresh snapshot. Called by metrics exposition sites just before
  /// rendering; stages ever seen keep their gauge (dropping to 0), so
  /// scrapes see consistent series.
  void UpdateStageGauges();

 private:
  /// The query-head buffer, as 8-byte atomic words (96 bytes).
  static constexpr size_t kHeadWords = 12;

  struct Slot {
    /// Seqlock over the metadata below: even = stable, odd = mid-write.
    std::atomic<uint64_t> seq{0};
    std::atomic<bool> occupied{false};
    std::atomic<int64_t> id{-1};
    std::atomic<uint64_t> query_hash{0};
    std::atomic<uint64_t> snapshot_epoch{0};
    /// Clock::time_point ticks since the clock's epoch.
    std::atomic<int64_t> start_ticks{0};
    std::atomic<int64_t> deadline_ticks{0};
    std::atomic<bool> has_deadline{false};
    /// NUL-padded query head, packed into words.
    std::atomic<uint64_t> head[kHeadWords] = {};
    /// Progress atomics sampled raw — owned here, reused, never freed.
    QueryProgress progress;
    /// Cancellable copy of the registered context; touched only under
    /// mu_ (Kill and Register/Unregister), never by samplers.
    QueryContext cancel_ctx;
  };

  void Unregister(size_t slot_index, int64_t id);
  size_t CountOccupiedLocked() const;

  mutable std::mutex mu_;
  std::atomic<int64_t> next_id_{1};
  Slot slots_[kSlots];
  /// Stage names ever observed by UpdateStageGauges, so series that empty
  /// out are reset to 0 instead of going stale.
  std::vector<const char*> known_stages_;
};

}  // namespace rdfa

#endif  // RDFA_COMMON_QUERY_REGISTRY_H_
