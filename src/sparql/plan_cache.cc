#include "sparql/plan_cache.h"

#include <cstdio>
#include <string>
#include <utility>

namespace rdfa::sparql {

namespace {

std::string KeyFor(uint64_t query_hash) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(query_hash));
  return buf;
}

// Rough footprint of a plan entry. The AST is a pointer-heavy structure we
// do not walk exactly; a fixed estimate keeps the byte budget meaningful
// without a recursive size pass.
size_t ApproxPlanBytes(const PlanEntry& entry) {
  return 1024 + entry.footprint.ApproxBytes();  // AST baseline
}

}  // namespace

PlanCache::PlanCache(CacheOptions opts)
    : cache_(opts, "rdfa_plan_cache") {}

std::shared_ptr<const PlanEntry> PlanCache::Get(
    uint64_t query_hash,
    const std::function<uint64_t(const CacheFootprint&)>& stamp_fn) {
  return cache_.Get(KeyFor(query_hash), stamp_fn);
}

void PlanCache::Put(uint64_t query_hash, uint64_t stamp, PlanEntry entry) {
  size_t bytes = ApproxPlanBytes(entry);
  CacheFootprint footprint = entry.footprint;
  cache_.Put(KeyFor(query_hash), stamp, std::move(entry), bytes,
             std::move(footprint));
}

}  // namespace rdfa::sparql
