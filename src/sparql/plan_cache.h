#ifndef RDFA_SPARQL_PLAN_CACHE_H_
#define RDFA_SPARQL_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/lru_cache.h"
#include "sparql/ast.h"

namespace rdfa::sparql {

/// One cached query plan: the parsed AST plus the BGP join orders the
/// executor chose for it (one vector per BGP join run, in evaluation
/// order). The orders were derived from GraphStats, which change with the
/// graph — hence the whole entry is stamped with, and validated against,
/// the graph generation that produced those statistics.
struct PlanEntry {
  ParsedQuery ast;
  std::vector<std::vector<int>> bgp_orders;
  /// The query's predicate footprint, recorded at plan time (see
  /// common/footprint.h). Answer-cache entries for this query reuse it, and
  /// the plan itself is validated with it: a mutation to an unrelated
  /// predicate leaves both the plan and its statistics-derived join orders
  /// valid.
  CacheFootprint footprint;
};

/// Generation-validated plan cache keyed by the FNV-1a hash of the
/// normalized query text (common/query_log.h). A hit skips both the parse
/// and the greedy BGP reordering; a generation mismatch is a miss that
/// lazily evicts the stale plan. Thread-safe; counters exported as
/// rdfa_plan_cache_{hits,misses,evictions,invalidations}_total.
class PlanCache {
 public:
  /// Plans are small; the default budget is deliberately tighter than the
  /// answer cache's.
  static CacheOptions DefaultOptions() {
    CacheOptions opts;
    opts.max_bytes = 8ull << 20;
    opts.max_entries = 1024;
    return opts;
  }

  explicit PlanCache(CacheOptions opts = DefaultOptions());

  /// The cached plan for `query_hash` computed at `generation`, or null.
  std::shared_ptr<const PlanEntry> Get(uint64_t query_hash,
                                       uint64_t generation);

  /// Footprint-validated lookup: `stamp_fn` recomputes the expected stamp
  /// from the stored plan's footprint (see LruCache::Get).
  std::shared_ptr<const PlanEntry> Get(
      uint64_t query_hash,
      const std::function<uint64_t(const CacheFootprint&)>& stamp_fn);

  /// Stores `entry` stamped with `generation` — the global generation for a
  /// wildcard footprint, or the graph's FootprintStamp of entry.footprint.
  void Put(uint64_t query_hash, uint64_t generation, PlanEntry entry);

  void Clear() { cache_.Clear(); }
  CacheStats Stats() const { return cache_.Stats(); }
  bool enabled() const { return cache_.enabled(); }

 private:
  LruCache<PlanEntry> cache_;
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_PLAN_CACHE_H_
