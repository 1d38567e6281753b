#ifndef RDFA_ANALYTICS_ROLLUP_CACHE_H_
#define RDFA_ANALYTICS_ROLLUP_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analytics/answer_frame.h"
#include "common/lru_cache.h"
#include "common/query_context.h"
#include "hifun/attr_expr.h"

namespace rdfa::analytics {

/// Materialized-answer reuse: computing a *coarser* grouping from an
/// already-materialized answer frame instead of the base KG — the
/// optimization of the works the dissertation surveys in §3.3 ([16], [51]:
/// "use the materialized result of an RDF analytical query to compute the
/// answer to a subsequent query"), and what makes OLAP roll-up cheap.
///
/// `keep_columns` selects the grouping columns that remain; rows sharing
/// those values are merged; the `agg_column` values are re-aggregated with
/// `op`. Only *distributive* aggregates are valid here: SUM, COUNT (sums of
/// partial counts), MIN, MAX. AVG is algebraic — use RollUpAverage with the
/// (sum, count) pair.
///
/// The answer's rows are folded left to right in one serial scan.
/// `ctx` (optional) is the deadline/cancellation context: the scan checks
/// it every 128 rows and unwinds to DeadlineExceeded/Cancelled.
Result<AnswerFrame> RollUpAnswer(const AnswerFrame& answer,
                                 const std::vector<std::string>& keep_columns,
                                 const std::string& agg_column,
                                 hifun::AggOp op,
                                 const QueryContext& ctx = QueryContext());

/// Rolls up an average from its (sum, count) decomposition: the result has
/// the kept grouping columns plus columns "sum", "count", "avg".
/// Scanned and checked as in RollUpAnswer.
Result<AnswerFrame> RollUpAverage(const AnswerFrame& answer,
                                  const std::vector<std::string>& keep_columns,
                                  const std::string& sum_column,
                                  const std::string& count_column,
                                  const QueryContext& ctx = QueryContext());

/// Generation-aware memo of answer frames, making OLAP roll-up reuse safe
/// under updates: every stored frame is stamped with the graph generation
/// it was computed at, and a lookup under a newer generation is a miss that
/// lazily evicts the stale frame (same protocol as the endpoint answer
/// cache — see DESIGN.md §11). Thread-safe; counters exported as
/// rdfa_rollup_cache_{hits,misses,evictions,invalidations}_total.
class RollupCache {
 public:
  static CacheOptions DefaultOptions() {
    CacheOptions opts;
    opts.max_bytes = 32ull << 20;
    opts.max_entries = 512;
    return opts;
  }

  explicit RollupCache(CacheOptions opts = DefaultOptions());

  /// The frame stored under `key` at exactly `generation`, or null.
  std::shared_ptr<const AnswerFrame> Get(const std::string& key,
                                         uint64_t generation);

  /// Footprint-validated lookup: the stored frame survives iff its stamp
  /// still equals `stamp_fn(stored footprint)` — with
  /// Graph::FootprintStamp as the stamp function, only a mutation touching
  /// one of the frame's predicates invalidates it (predicate-granular
  /// invalidation; see common/lru_cache.h).
  std::shared_ptr<const AnswerFrame> Get(
      const std::string& key,
      const std::function<uint64_t(const CacheFootprint&)>& stamp_fn);

  /// Stores `frame` (computed at `generation`) under `key`. The optional
  /// footprint (default wildcard) feeds footprint-validated lookups.
  void Put(const std::string& key, uint64_t generation, AnswerFrame frame,
           CacheFootprint footprint = CacheFootprint::Wildcard());

  /// Memoized RollUpAnswer: returns the cached roll-up of
  /// (`source_key`, keep_columns, agg_column, op) when its stamped
  /// generation matches, else computes it (same semantics and byte-identical
  /// result as the free function) and fills the cache. `source_key` names
  /// the materialized source answer — e.g. the SPARQL fingerprint that
  /// produced it; `generation` is the graph generation that answer was
  /// computed at.
  Result<AnswerFrame> RollUp(const std::string& source_key,
                             uint64_t generation, const AnswerFrame& answer,
                             const std::vector<std::string>& keep_columns,
                             const std::string& agg_column, hifun::AggOp op,
                             const QueryContext& ctx = QueryContext());

  void Clear() { cache_.Clear(); }
  CacheStats Stats() const { return cache_.Stats(); }

 private:
  LruCache<AnswerFrame> cache_;
};

}  // namespace rdfa::analytics

#endif  // RDFA_ANALYTICS_ROLLUP_CACHE_H_
