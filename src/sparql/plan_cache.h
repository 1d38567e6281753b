#ifndef RDFA_SPARQL_PLAN_CACHE_H_
#define RDFA_SPARQL_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/lru_cache.h"
#include "sparql/ast.h"

namespace rdfa::sparql {

/// One cached query: the parsed AST and its predicate footprint. Join
/// orders are not cached; every BGP run is planned on the snapshot it runs
/// on.
struct PlanEntry {
  ParsedQuery ast;
  /// The query's predicate footprint, recorded at parse time (see
  /// common/footprint.h). Answer-cache entries for this query reuse it, and
  /// the entry is stamped and validated with it like an answer.
  CacheFootprint footprint;
};

/// Stamp-validated cache of parsed queries keyed by the FNV-1a hash of the
/// normalized query text (common/query_log.h). A hit skips the parse and
/// the footprint walk; a stamp mismatch is a miss that lazily evicts the
/// stale entry. Thread-safe; counters exported as
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

  /// The cached plan for `query_hash`, or null. `stamp_fn` recomputes the
  /// expected stamp from the stored plan's footprint (see LruCache::Get).
  std::shared_ptr<const PlanEntry> Get(
      uint64_t query_hash,
      const std::function<uint64_t(const CacheFootprint&)>& stamp_fn);

  /// Stores `entry` stamped with `stamp`, the graph's FootprintStamp of
  /// entry.footprint (the global generation for a wildcard footprint).
  void Put(uint64_t query_hash, uint64_t stamp, PlanEntry entry);

  void Clear() { cache_.Clear(); }
  CacheStats Stats() const { return cache_.Stats(); }
  bool enabled() const { return cache_.enabled(); }

 private:
  LruCache<PlanEntry> cache_;
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_PLAN_CACHE_H_
