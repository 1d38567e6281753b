#ifndef RDFA_ENDPOINT_ENDPOINT_H_
#define RDFA_ENDPOINT_ENDPOINT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/query_context.h"
#include "common/query_log.h"
#include "common/status.h"
#include "rdf/mvcc.h"
#include "sparql/exec_stats.h"
#include "sparql/plan_cache.h"
#include "sparql/result_table.h"

namespace rdfa::endpoint {

/// Deterministic latency model of a remote SPARQL endpoint. The paper's
/// efficiency experiments (Tables 6.1/6.2) measured a live endpoint at peak
/// and off-peak hours; we reproduce the *shape* of that contrast with a
/// modeled endpoint: total time = execution time x load multiplier +
/// simulated network round-trip. No sleeping is involved — execution time
/// is really measured, the remote overheads are modeled (see DESIGN.md
/// substitution table).
struct LatencyProfile {
  std::string name;
  double load_multiplier = 1.0;   ///< endpoint contention slows service
  double network_base_ms = 0;     ///< round-trip floor
  double network_jitter_ms = 0;   ///< deterministic pseudo-random jitter amp

  /// Peak hours: busy endpoint, loaded network (§6.4 Table 6.1).
  static LatencyProfile Peak();
  /// Off-peak hours (Table 6.2).
  static LatencyProfile OffPeak();
  /// Local in-process evaluation (no modeled overhead).
  static LatencyProfile Local();
};

/// Admission-control knobs: how many queries the endpoint serves at once,
/// how many it queues beyond that, and the per-query time budget. The
/// budget is scaled by the profile's load multiplier (a busy endpoint
/// gives each query a *tighter* slice), mirroring how public endpoints
/// enforce stricter limits at peak hours.
struct AdmissionOptions {
  size_t max_in_flight = 4;  ///< queries executing concurrently
  size_t max_queue = 8;      ///< FIFO waiters beyond that; 0 = shed at once
  /// Per-query budget at load multiplier 1.0; effective timeout =
  /// base_timeout_ms / load_multiplier. <= 0 disables the derived deadline.
  double base_timeout_ms = 10'000;
};

/// Timing breakdown of one endpoint query.
struct QueryResponse {
  sparql::ResultTable table;
  double exec_ms = 0;      ///< measured local evaluation time
  double network_ms = 0;   ///< modeled round-trip
  double total_ms = 0;     ///< exec * load_multiplier + network + queued
  double queued_ms = 0;    ///< time spent waiting for an admission slot
  size_t queue_depth = 0;  ///< waiters still queued when admitted / shed
  bool cache_hit = false;
  /// The execution reused a cached parse (the parse was skipped).
  /// Always false on answer-cache hits — nothing executed at all.
  bool plan_cache_hit = false;
  /// Outcome of the request. OK for a served answer. DeadlineExceeded /
  /// Cancelled when the query tripped its budget mid-execution — the table
  /// is empty but exec_stats keeps the partial work (aborted stage, rows
  /// scanned so far). ResourceExhausted when admission shed the query (the
  /// message carries the queue depth). Transport-level failures — an
  /// unparsable query, an engine error — stay in the Result error arm.
  Status status;
  /// Engine-side execution statistics (join order, rows scanned, morsel
  /// count, per-stage wall time). Zeroed on cache hits — nothing executed.
  sparql::ExecStats exec_stats;
};

/// One served query, as kept in the endpoint's log.
struct QueryLogEntry {
  std::string query_head;  ///< first line of the query text
  double exec_ms = 0;
  double total_ms = 0;
  double queued_ms = 0;    ///< admission-queue wait
  size_t rows = 0;
  bool cache_hit = false;
};

/// Aggregate statistics over the query log.
struct EndpointStats {
  size_t count = 0;
  double mean_exec_ms = 0;
  double max_exec_ms = 0;
  double p95_exec_ms = 0;
  double mean_total_ms = 0;
  double p50_total_ms = 0;
  double p99_total_ms = 0;
  double p50_queued_ms = 0;  ///< median admission-queue wait
  double p99_queued_ms = 0;  ///< tail admission-queue wait
  size_t shed = 0;       ///< admission rejections (ResourceExhausted)
  size_t timed_out = 0;  ///< queries that tripped their deadline
  size_t cancelled = 0;  ///< cooperatively cancelled queries
};

/// A SPARQL endpoint facade over the local engine with the latency model,
/// an optional answer + plan cache (an ablation knob), and a query log.
///
/// The endpoint serves an rdf::MvccGraph. Each query pins an immutable
/// snapshot for its whole lifetime: no graph lock is held across a query,
/// and concurrent commits never stall readers. Writers mutate through the
/// MvccGraph (Insert/Remove/BufferUpdate + Commit); no exclusive access
/// w.r.t. this endpoint is required.
///
/// Caching protocol: every cached artifact carries the query's *predicate
/// footprint* and is stamped with Graph::FootprintStamp(footprint) on the
/// pinned snapshot. A lookup revalidates the entry against the reader's own
/// snapshot, so a commit invalidates only the entries whose footprint
/// intersects the predicates it touched (wildcard footprints — variable
/// predicates, property paths, DESCRIBE — fall back to the global
/// generation). A stale lookup is a miss that lazily evicts the entry.
/// set_predicate_invalidation(false) degrades every footprint to a
/// wildcard, restoring whole-cache invalidation as an ablation baseline.
/// Queries are fingerprinted with whitespace-normalized text
/// (NormalizeQueryText), so reformattings share an entry.
class SimulatedEndpoint {
 public:
  /// `mvcc` must outlive the endpoint.
  SimulatedEndpoint(rdf::MvccGraph* mvcc, LatencyProfile profile,
                    bool enable_cache = false);

  /// RAII hold on one in-flight execution slot; releasing (or destroying)
  /// it wakes the next FIFO waiter. Default-constructed slots hold nothing.
  class AdmissionSlot {
   public:
    AdmissionSlot() = default;
    AdmissionSlot(const AdmissionSlot&) = delete;
    AdmissionSlot& operator=(const AdmissionSlot&) = delete;
    AdmissionSlot(AdmissionSlot&& other) noexcept { *this = std::move(other); }
    AdmissionSlot& operator=(AdmissionSlot&& other) noexcept {
      if (this != &other) {
        Release();
        endpoint_ = other.endpoint_;
        queued_ms_ = other.queued_ms_;
        queue_depth_ = other.queue_depth_;
        other.endpoint_ = nullptr;
      }
      return *this;
    }
    ~AdmissionSlot() { Release(); }

    void Release();
    bool held() const { return endpoint_ != nullptr; }
    double queued_ms() const { return queued_ms_; }
    size_t queue_depth() const { return queue_depth_; }

   private:
    friend class SimulatedEndpoint;
    SimulatedEndpoint* endpoint_ = nullptr;
    double queued_ms_ = 0;
    size_t queue_depth_ = 0;
  };

  Result<QueryResponse> Query(const std::string& sparql);

  /// As above with a caller-supplied deadline/cancellation context. The
  /// profile-derived per-query timeout is combined in (the tighter deadline
  /// wins); cancel state is shared, so the caller can abort a query that is
  /// executing — or still queued — from another thread.
  Result<QueryResponse> Query(const std::string& sparql, QueryContext ctx);

  /// Acquires an execution slot, waiting FIFO behind earlier arrivals.
  /// Sheds with ResourceExhausted when the wait queue is full; unwinds with
  /// DeadlineExceeded/Cancelled if `ctx` trips while queued. Exposed so
  /// tests (and embedders doing their own execution) can hold slots
  /// deterministically. `queue_depth` (optional) receives the number of
  /// waiters at the admit/shed decision.
  Result<AdmissionSlot> Admit(const QueryContext& ctx = QueryContext(),
                              size_t* queue_depth = nullptr);

  /// Admission-control knobs (applies to subsequent queries).
  void set_admission(AdmissionOptions opts);
  AdmissionOptions admission() const;
  /// The per-query budget after load scaling:
  /// base_timeout_ms / load_multiplier (0 = unlimited).
  double effective_timeout_ms() const;

  /// Morsel-parallelism budget for served queries (default 1 = serial).
  /// Parallel answers are byte-identical to serial ones, so the cache and
  /// the latency model are unaffected by this knob.
  void set_thread_count(int threads) { thread_count_ = threads < 1 ? 1 : threads; }
  int thread_count() const { return thread_count_; }

  /// Planner-v2 DP join ordering for served queries (default off); see
  /// Executor::set_use_dp. Folded into the answer/plan cache keys, so
  /// entries never leak across configurations.
  void set_use_dp(bool on) { use_dp_ = on; }
  bool use_dp() const { return use_dp_; }

  /// Toggles predicate-granular cache invalidation (default on). Off: fills
  /// stamp a wildcard footprint, i.e. classic global-generation
  /// invalidation — the bench ablation baseline.
  void set_predicate_invalidation(bool on) { predicate_invalidation_ = on; }
  bool predicate_invalidation() const { return predicate_invalidation_; }
  /// The served store; plan-only paths (EXPLAIN) pin its head themselves.
  rdf::MvccGraph* mvcc() const { return mvcc_; }

  const LatencyProfile& profile() const { return profile_; }
  size_t queries_served() const;
  size_t cache_hits() const;
  /// Drops every answer- and plan-cache entry and zeroes the hit counters,
  /// so hit-rate math after a clear starts from scratch.
  void ClearCache();

  /// Replaces the answer cache (and the derived plan cache) with freshly
  /// configured, empty ones. Not synchronized against in-flight queries —
  /// configure before serving traffic.
  void set_cache_options(CacheOptions opts);
  CacheOptions cache_options() const { return cache_opts_; }
  bool cache_enabled() const { return answer_cache_->enabled(); }
  /// Counters of the two cache layers (hits/misses/evictions/
  /// invalidations/residency). Cumulative until ClearCache().
  CacheStats answer_cache_stats() const { return answer_cache_->Stats(); }
  CacheStats plan_cache_stats() const { return plan_cache_->Stats(); }

  /// Every successfully served query, in order. Not synchronized — read it
  /// only once concurrent queries have drained.
  const std::vector<QueryLogEntry>& log() const { return log_; }
  /// Aggregates over the log and the shed/timeout/cancel counters (empty
  /// log -> zeroed latency fields).
  EndpointStats Stats() const;

  /// When set, every served query gets a span tracer attached (unless the
  /// caller's context already carries one) and its Chrome trace-event JSON
  /// is written to `dir/query-<seq>.json`. Empty (the default) disables
  /// per-query trace files.
  void set_trace_dir(std::string dir);
  /// When set, one structured JSON line per query (hash, outcome, timing,
  /// ExecStats, trace file ref) is appended to `path`.
  void set_query_log_path(const std::string& path);
  const QueryLog* structured_log() const { return query_log_.get(); }

  /// Slow-query capture: any served query whose total time (execution plus
  /// modeled overheads and queueing) crosses `threshold_ms` dumps its full
  /// forensic record — query head, outcome, ExecStats, plan shapes, and the
  /// nested operator profile — into `dir/slow-<k>.json`, a bounded ring of
  /// `max_files` files. Enabling this also attaches a tracer to every served
  /// query (like set_trace_dir) so captures always carry a profile. Empty
  /// dir disables. Configure before serving traffic.
  void set_slow_query_capture(std::string dir, double threshold_ms,
                              int max_files = 32);
  const SlowQueryCapturer* slow_query_capturer() const {
    return slow_capturer_.get();
  }

 private:
  double SimulatedNetworkMs(const std::string& sparql);  // callers hold mu_
  void ReleaseSlot();
  void RecordOutcome(const Status& status);

  rdf::MvccGraph* mvcc_;
  bool predicate_invalidation_ = true;
  LatencyProfile profile_;
  int thread_count_ = 1;
  bool use_dp_ = false;

  /// Cache layers. Internally synchronized (sharded locks); the unique_ptrs
  /// themselves are only replaced by set_cache_options, which must not race
  /// with queries. The plan cache is gated by the same enablement knob so a
  /// cache-off endpoint is a true no-reuse baseline.
  CacheOptions cache_opts_;
  std::unique_ptr<LruCache<sparql::ResultTable>> answer_cache_;
  std::unique_ptr<sparql::PlanCache> plan_cache_;

  /// Guards the service state: log, counters, jitter stream. Never held
  /// together with adm_mu_.
  mutable std::mutex mu_;
  std::vector<QueryLogEntry> log_;
  size_t queries_served_ = 0;
  size_t cache_hits_ = 0;
  size_t shed_count_ = 0;
  size_t timeout_count_ = 0;
  size_t cancelled_count_ = 0;
  uint64_t jitter_state_ = 0x9E3779B97F4A7C15ull;

  /// Observability sinks (guarded by mu_ for configuration; QueryLog is
  /// internally synchronized for writes).
  std::string trace_dir_;
  int64_t trace_seq_ = 0;
  std::unique_ptr<QueryLog> query_log_;
  std::unique_ptr<SlowQueryCapturer> slow_capturer_;

  /// Admission state: bounded in-flight count plus a FIFO ticket queue.
  mutable std::mutex adm_mu_;
  std::condition_variable adm_cv_;
  AdmissionOptions admission_;
  size_t in_flight_ = 0;
  std::deque<uint64_t> adm_queue_;
  uint64_t next_ticket_ = 0;
};

}  // namespace rdfa::endpoint

#endif  // RDFA_ENDPOINT_ENDPOINT_H_
