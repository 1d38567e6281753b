// Unit coverage of the generation-aware cache stack: the byte-accounted
// LRU template (exact accounting, eviction order, zero-capacity and
// oversized-entry edge cases, generation-mismatch lazy invalidation), the
// whitespace-normalizing query fingerprint it is keyed by, the plan cache,
// and the no-poisoned-entry guarantee — a deterministically cancelled
// cache-miss fill must leave nothing behind.

#include "common/lru_cache.h"

#include <memory>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/query_context.h"
#include "common/query_log.h"
#include "endpoint/endpoint.h"
#include "sparql/parser.h"
#include "sparql/plan_cache.h"
#include "test_store.h"
#include "workload/invoices.h"

namespace rdfa {
namespace {

CacheOptions SingleShard(size_t max_bytes, size_t max_entries) {
  CacheOptions opts;
  opts.max_bytes = max_bytes;
  opts.max_entries = max_entries;
  opts.shards = 1;  // one global LRU: deterministic accounting + order
  return opts;
}

TEST(LruCacheTest, ByteAccountingIsExact) {
  LruCache<std::string> cache(SingleShard(1000, 100));
  cache.Put("a", 1, std::string("x"), 100);
  cache.Put("b", 1, std::string("y"), 250);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 350u);

  // Replacing a key swaps its accounted size, never double-counts.
  cache.Put("a", 1, std::string("xx"), 175);
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 425u);

  // A generation-invalidated entry releases its bytes.
  EXPECT_EQ(cache.Get("b", 2), nullptr);
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 175u);

  cache.Clear();
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedFirst) {
  LruCache<int> cache(SingleShard(1 << 20, 3));
  cache.Put("a", 1, 1, 10);
  cache.Put("b", 1, 2, 10);
  cache.Put("c", 1, 3, 10);
  // Refresh "a": it is now the most recently used; "b" is the LRU tail.
  ASSERT_NE(cache.Get("a", 1), nullptr);
  cache.Put("d", 1, 4, 10);
  EXPECT_EQ(cache.Get("b", 1), nullptr) << "LRU victim should be b";
  EXPECT_NE(cache.Get("a", 1), nullptr);
  EXPECT_NE(cache.Get("c", 1), nullptr);
  EXPECT_NE(cache.Get("d", 1), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(LruCacheTest, ByteBudgetEvictsUntilUnderLimit) {
  LruCache<int> cache(SingleShard(100, 100));
  cache.Put("a", 1, 1, 40);
  cache.Put("b", 1, 2, 40);
  // 40 + 40 + 40 > 100: "a" (the tail) must go.
  cache.Put("c", 1, 3, 40);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 80u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.Get("a", 1), nullptr);
}

TEST(LruCacheTest, ZeroCapacityStoresNothing) {
  for (CacheOptions opts :
       {SingleShard(0, 100), SingleShard(1 << 20, 0)}) {
    LruCache<int> cache(opts);
    EXPECT_FALSE(cache.enabled());
    cache.Put("a", 1, 1, 1);
    EXPECT_EQ(cache.Get("a", 1), nullptr);
    CacheStats stats = cache.Stats();
    EXPECT_EQ(stats.entries, 0u);
    // A disabled cache does not even count misses: it is pass-through.
    EXPECT_EQ(stats.misses, 0u);
  }
  CacheOptions disabled = SingleShard(1 << 20, 16);
  disabled.enabled = false;
  LruCache<int> cache(disabled);
  EXPECT_FALSE(cache.enabled());
  cache.Put("a", 1, 1, 1);
  EXPECT_EQ(cache.Get("a", 1), nullptr);
}

TEST(LruCacheTest, OversizedEntryIsNotStored) {
  LruCache<int> cache(SingleShard(100, 100));
  cache.Put("small", 1, 1, 60);
  // Larger than the whole byte budget: evicting everything could not make
  // it fit, so it is skipped — and the resident entry survives.
  cache.Put("huge", 1, 2, 101);
  EXPECT_EQ(cache.Get("huge", 1), nullptr);
  EXPECT_NE(cache.Get("small", 1), nullptr);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(LruCacheTest, GenerationMismatchIsLazyEviction) {
  LruCache<std::string> cache(SingleShard(1 << 20, 16));
  cache.Put("q", 7, std::string("answer@7"), 8);
  // Same generation: hit.
  auto hit = cache.Get("q", 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "answer@7");
  // Newer generation: miss + invalidation, and the entry is gone.
  EXPECT_EQ(cache.Get("q", 8), nullptr);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // The follow-up miss is a plain miss, not another invalidation.
  EXPECT_EQ(cache.Get("q", 8), nullptr);
  stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(LruCacheTest, HitRateMathMatchesCounters) {
  LruCache<int> cache(SingleShard(1 << 20, 16));
  cache.Put("a", 1, 1, 4);
  ASSERT_NE(cache.Get("a", 1), nullptr);
  ASSERT_EQ(cache.Get("b", 1), nullptr);
  CacheStats stats = cache.Stats();
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  EXPECT_DOUBLE_EQ(CacheStats{}.HitRate(), 0.0);
}

TEST(LruCacheTest, ValueOutlivesItsEviction) {
  LruCache<std::string> cache(SingleShard(1 << 20, 1));
  cache.Put("a", 1, std::string("still here"), 10);
  std::shared_ptr<const std::string> held = cache.Get("a", 1);
  ASSERT_NE(held, nullptr);
  cache.Put("b", 1, std::string("usurper"), 10);  // evicts "a"
  EXPECT_EQ(cache.Get("a", 1), nullptr);
  EXPECT_EQ(*held, "still here") << "reader's reference must stay alive";
}

// ---------------------------------------------------------------------------
// Replacement accounting: a Put under an occupied key displaces the old
// entry, and that displacement must tick the replacements counter —
// including on the oversized-value reject path, where the old entry is
// dropped but nothing new is stored.

TEST(LruCacheTest, ReplacementTicksExactlyOnce) {
  LruCache<std::string> cache(SingleShard(1000, 16));
  cache.Put("k", 1, std::string("v1"), 100);
  EXPECT_EQ(cache.Stats().replacements, 0u);
  cache.Put("k", 2, std::string("v2"), 120);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.replacements, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 120u);
  auto hit = cache.Get("k", 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "v2");
  // A Put to a fresh key is not a replacement.
  cache.Put("other", 2, std::string("x"), 10);
  EXPECT_EQ(cache.Stats().replacements, 1u);
}

TEST(LruCacheTest, OversizedRejectStillCountsDisplacedEntry) {
  LruCache<std::string> cache(SingleShard(100, 16));
  cache.Put("k", 1, std::string("resident"), 40);
  ASSERT_EQ(cache.Stats().entries, 1u);
  // The oversized value is rejected, but the pre-existing entry under the
  // key is still dropped — and that removal must be accounted for.
  cache.Put("k", 1, std::string("way too big"), 101);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(cache.Get("k", 1), nullptr);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.replacements, 1u)
      << "displaced entry vanished without ticking any counter";
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST(LruCacheTest, EveryRemovalTicksExactlyOneCounter) {
  // Exactly-once accounting: across a mixed workload, the number of entries
  // ever stored equals current residency plus every counted removal.
  LruCache<int> cache(SingleShard(1000, 3));
  uint64_t stored = 0;
  cache.Put("a", 1, 1, 10); ++stored;
  cache.Put("b", 1, 2, 10); ++stored;
  cache.Put("c", 1, 3, 10); ++stored;
  cache.Put("a", 2, 4, 10); ++stored;   // replacement
  cache.Put("d", 1, 5, 10); ++stored;   // capacity eviction of the tail
  EXPECT_EQ(cache.Get("c", 9), nullptr);  // invalidation (if c survived)
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stored, stats.entries + stats.evictions + stats.invalidations +
                        stats.replacements);
}

// ---------------------------------------------------------------------------
// Footprint-validated lookups: the stamp-fn Get recomputes the expected
// stamp from the entry's own footprint, so mutations to predicates outside
// the footprint leave the entry valid.

TEST(LruCacheTest, FootprintStampSurvivesUnrelatedMutations) {
  LruCache<std::string> cache(SingleShard(1 << 20, 16));
  // Modeled per-predicate epochs, as Graph::FootprintStamp would sum them.
  std::unordered_map<std::string, uint64_t> epochs{{"p1", 3}, {"p2", 7}};
  auto stamp = [&epochs](const CacheFootprint& fp) -> uint64_t {
    uint64_t sum = 0;
    for (const std::string& p : fp.predicates) sum += epochs[p];
    return sum;
  };
  CacheFootprint fp = CacheFootprint::Of({"p1"});
  cache.Put("q", stamp(fp), std::string("answer"), 8, fp);

  // Mutating p2 does not touch the entry's footprint: still a hit.
  epochs["p2"] = 8;
  EXPECT_NE(cache.Get("q", stamp), nullptr);
  // Mutating p1 does: miss + lazy invalidation.
  epochs["p1"] = 4;
  EXPECT_EQ(cache.Get("q", stamp), nullptr);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(LruCacheTest, WildcardFootprintMatchesLegacyGenerationProtocol) {
  LruCache<int> cache(SingleShard(1 << 20, 16));
  uint64_t global_gen = 5;
  auto stamp = [&global_gen](const CacheFootprint& fp) -> uint64_t {
    EXPECT_TRUE(fp.wildcard);
    return global_gen;
  };
  cache.Put("q", 5, 42, 4);  // default footprint: wildcard
  EXPECT_NE(cache.Get("q", stamp), nullptr);
  global_gen = 6;  // any mutation moves the global stamp
  EXPECT_EQ(cache.Get("q", stamp), nullptr);
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

// ---------------------------------------------------------------------------
// The fingerprint the caches are keyed by.

TEST(NormalizeQueryTextTest, CollapsesWhitespaceOutsideLiterals) {
  EXPECT_EQ(NormalizeQueryText("SELECT  ?x\n\tWHERE { ?x ?p ?o }"),
            "SELECT ?x WHERE { ?x ?p ?o }");
  EXPECT_EQ(NormalizeQueryText("  SELECT ?x  "), "SELECT ?x");
  EXPECT_EQ(NormalizeQueryText(""), "");
  EXPECT_EQ(NormalizeQueryText(" \n\t "), "");
}

TEST(NormalizeQueryTextTest, PreservesWhitespaceInsideLiterals) {
  // "a  b" and "a b" are different RDF literals: the fingerprint must not
  // merge queries that differ only inside a quoted string.
  const std::string two = "SELECT ?x WHERE { ?x ?p \"a  b\" }";
  const std::string one = "SELECT ?x WHERE { ?x ?p \"a b\" }";
  EXPECT_NE(NormalizeQueryText(two), NormalizeQueryText(one));
  EXPECT_EQ(NormalizeQueryText(two), two);
  // Single quotes and escaped quotes keep the state machine honest.
  const std::string esc = "SELECT ?x WHERE { ?x ?p 'it\\'s  two' }";
  EXPECT_EQ(NormalizeQueryText(esc), esc);
}

TEST(NormalizeQueryTextTest, ReformattingsShareAFingerprint) {
  const std::string a =
      "PREFIX inv: <urn:i#>\nSELECT ?b WHERE { ?i inv:at ?b . }";
  const std::string b =
      "PREFIX inv: <urn:i#>\n\n  SELECT   ?b\tWHERE {\n  ?i inv:at ?b .\n}";
  EXPECT_EQ(HashQueryText(NormalizeQueryText(a)),
            HashQueryText(NormalizeQueryText(b)));
}

// ---------------------------------------------------------------------------
// Plan cache

TEST(PlanCacheTest, RoundTripsParsedQueriesPerGeneration) {
  sparql::PlanCache cache;
  ASSERT_TRUE(cache.enabled());
  const uint64_t h = HashQueryText("SELECT ?x WHERE { ?x ?p ?o }");
  uint64_t generation = 1;
  const auto stamp_fn = [&generation](const CacheFootprint&) {
    return generation;
  };
  EXPECT_EQ(cache.Get(h, stamp_fn), nullptr);

  auto parsed = sparql::ParseQuery("SELECT ?x WHERE { ?x ?p ?o }");
  ASSERT_TRUE(parsed.ok());
  sparql::PlanEntry entry;
  entry.ast = parsed.value();
  cache.Put(h, 1, std::move(entry));

  auto hit = cache.Get(h, stamp_fn);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->ast.select.where.elements.size(), 1u);
  EXPECT_EQ(hit->ast.select.where.elements[0].triple.o.var, "o");

  // A different generation invalidates the entry.
  generation = 2;
  EXPECT_EQ(cache.Get(h, stamp_fn), nullptr);
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

// ---------------------------------------------------------------------------
// No poisoned entries: a cache-miss fill whose execution trips
// cancellation (deterministically, via the check-count fault injection)
// must leave the cache empty — the next lookup re-executes and succeeds.

TEST(CachePoisonTest, CancelledFillLeavesNoEntryBehind) {
  auto store = test::SparqlStore(workload::BuildInvoicesExample);
  endpoint::SimulatedEndpoint ep(store.get(), endpoint::LatencyProfile::Local(),
                                 /*enable_cache=*/true);
  const char kQuery[] =
      "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
      "SELECT ?b (SUM(?q) AS ?tot) WHERE { ?i inv:takesPlaceAt ?b . ?i "
      "inv:inQuantity ?q . } GROUP BY ?b";

  // Probe a clean run for its deterministic check count, then replay and
  // trip on the last check — deep inside execution, after the cache-miss
  // path has committed to filling.
  QueryContext probe;
  {
    endpoint::SimulatedEndpoint clean(store.get(),
                                      endpoint::LatencyProfile::Local());
    auto r = clean.Query(kQuery, probe);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().status.ok());
  }
  ASSERT_GT(probe.checks_performed(), 1);

  QueryContext ctx;
  ctx.CancelAfterChecks(probe.checks_performed());
  auto tripped = ep.Query(kQuery, ctx);
  ASSERT_TRUE(tripped.ok()) << tripped.status().ToString();
  ASSERT_EQ(tripped.value().status.code(), StatusCode::kCancelled);

  CacheStats stats = ep.answer_cache_stats();
  EXPECT_EQ(stats.entries, 0u) << "cancelled fill stored a poisoned entry";
  EXPECT_EQ(ep.plan_cache_stats().entries, 0u);

  // The next lookup is a miss that executes cleanly and caches the real
  // answer.
  auto clean = ep.Query(kQuery);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean.value().status.ok());
  EXPECT_FALSE(clean.value().cache_hit);
  EXPECT_EQ(clean.value().table.num_rows(), 3u);
  auto hit = ep.Query(kQuery);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_EQ(hit.value().table.ToTsv(), clean.value().table.ToTsv());
}

}  // namespace
}  // namespace rdfa
