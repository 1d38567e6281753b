// Differential cache-equivalence suite: the generation-aware answer/plan
// cache must be *observationally invisible* — a cache-on endpoint and a
// cache-off endpoint over the same mutating graph must return byte-identical
// answers at every step of a randomized query/update interleaving, across
// seeds and thread counts, under eviction pressure, and under concurrent
// hammering (the sanitize suite runs this file under TSan).
//
// Updates are MVCC commits between queries; every query pins the head
// snapshot, so both endpoints answer from the same version at every step.

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "endpoint/endpoint.h"
#include "sparql/results_io.h"
#include "test_store.h"
#include "workload/products.h"

namespace rdfa::endpoint {
namespace {

const std::string kEx = workload::kExampleNs;

std::vector<std::string> QueryPool() {
  const std::string p = "PREFIX ex: <" + kEx + ">\n";
  return {
      p + "SELECT ?m (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ?m . } "
          "GROUP BY ?m ORDER BY ?m",
      p + "SELECT ?m (AVG(?x) AS ?avg) WHERE { ?l ex:manufacturer ?m . "
          "?l ex:price ?x . } GROUP BY ?m ORDER BY ?m",
      p + "SELECT ?o (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ?m . "
          "?m ex:origin ?o . } GROUP BY ?o ORDER BY ?o",
      p + "SELECT (SUM(?x) AS ?total) WHERE { ?l ex:price ?x . }",
      p + "SELECT ?l ?x WHERE { ?l ex:price ?x . FILTER(?x > 1500) } "
          "ORDER BY ?l ?x",
      p + "SELECT ?m (MAX(?x) AS ?hi) (MIN(?x) AS ?lo) WHERE { "
          "?l ex:manufacturer ?m . ?l ex:price ?x . } GROUP BY ?m "
          "ORDER BY ?m",
  };
}

/// A deterministic SPARQL UPDATE for `step`: inserts touch the answer of
/// every pool query (new manufacturer edge + price), deletes retract an
/// earlier insert (a no-match delete leaves the generation alone, which is
/// exactly the semantics the cache should mirror).
std::string UpdateFor(int step) {
  const std::string p = "PREFIX ex: <" + kEx + ">\n";
  const std::string iri = "ex:cachepoke" + std::to_string(step);
  if (step % 3 == 2) {
    return p + "DELETE WHERE { ex:cachepoke" + std::to_string(step - 1) +
           " ?p ?o . }";
  }
  return p + "INSERT DATA { " + iri + " ex:manufacturer ex:company0 . " +
         iri + " ex:price " + std::to_string(1000 + step) + " . }";
}

void BuildGraph(rdf::Graph* g, size_t laptops) {
  workload::ProductKgOptions opt;
  opt.laptops = laptops;
  workload::GenerateProductKg(g, opt);
}

/// One differential run: randomized interleaving of queries and updates,
/// asserting byte-identical answers from the cache-on and cache-off
/// endpoints at every step, then a forced query/update/query sequence that
/// demonstrates at least one generation invalidation and one refreshed hit.
void RunDifferential(uint32_t seed, int threads) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threads=" + std::to_string(threads));
  auto store = test::SparqlStore([](rdf::Graph* g) { BuildGraph(g, 100); });

  SimulatedEndpoint cached(store.get(), LatencyProfile::Local(),
                           /*enable_cache=*/true);
  SimulatedEndpoint uncached(store.get(), LatencyProfile::Local(),
                             /*enable_cache=*/false);
  cached.set_thread_count(threads);
  uncached.set_thread_count(threads);

  const std::vector<std::string> pool = QueryPool();
  std::mt19937 rng(seed);
  int updates = 0;
  for (int step = 0; step < 36; ++step) {
    if (rng() % 10 < 3) {
      Status up = test::CommitUpdate(store.get(), UpdateFor(step));
      ASSERT_TRUE(up.ok()) << up.ToString();
      ++updates;
      continue;
    }
    const std::string& q = pool[rng() % pool.size()];
    auto a = cached.Query(q);
    auto b = uncached.Query(q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(a.value().status.ok()) << a.value().status.ToString();
    ASSERT_TRUE(b.value().status.ok()) << b.value().status.ToString();
    ASSERT_EQ(a.value().table.ToTsv(), b.value().table.ToTsv())
        << "cache-on answer diverged at step " << step;
    EXPECT_FALSE(b.value().cache_hit)
        << "the cache-off baseline must never reuse anything";
  }
  EXPECT_GT(updates, 0) << "the interleaving never mutated the graph";

  // Forced invalidation: fill, mutate, re-query (must miss + re-execute),
  // re-query again (must hit with the refreshed bytes).
  const std::string& q = pool[0];
  ASSERT_TRUE(cached.Query(q).ok());
  ASSERT_TRUE(test::CommitUpdate(store.get(), UpdateFor(900)).ok());
  auto refreshed = cached.Query(q);
  auto baseline = uncached.Query(q);
  ASSERT_TRUE(refreshed.ok() && baseline.ok());
  ASSERT_TRUE(refreshed.value().status.ok());
  ASSERT_TRUE(baseline.value().status.ok());
  EXPECT_FALSE(refreshed.value().cache_hit);
  EXPECT_EQ(refreshed.value().table.ToTsv(), baseline.value().table.ToTsv());
  auto hit = cached.Query(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_EQ(hit.value().table.ToTsv(), baseline.value().table.ToTsv());

  CacheStats stats = cached.answer_cache_stats();
  EXPECT_GE(stats.invalidations, 1u)
      << "no generation-invalidated entry was demonstrated";
  EXPECT_GE(stats.hits, 1u);
}

TEST(CacheEquivalenceTest, DifferentialSeed1Serial) { RunDifferential(1, 1); }
TEST(CacheEquivalenceTest, DifferentialSeed2Serial) { RunDifferential(2, 1); }
TEST(CacheEquivalenceTest, DifferentialSeed3Serial) { RunDifferential(3, 1); }
TEST(CacheEquivalenceTest, DifferentialSeed1Parallel) {
  RunDifferential(1, 4);
}
TEST(CacheEquivalenceTest, DifferentialSeed2Parallel) {
  RunDifferential(2, 4);
}
TEST(CacheEquivalenceTest, DifferentialSeed3Parallel) {
  RunDifferential(3, 4);
}

// Eviction pressure: a cache squeezed to 2 entries churns constantly; the
// churn must never surface a wrong answer, only cost hits.
TEST(CacheEquivalenceTest, EvictionPressureNeverChangesAnswers) {
  auto store = test::SparqlStore([](rdf::Graph* g) { BuildGraph(g, 100); });
  SimulatedEndpoint cached(store.get(), LatencyProfile::Local(),
                           /*enable_cache=*/true);
  CacheOptions opts;
  opts.max_entries = 2;
  opts.shards = 1;
  cached.set_cache_options(opts);
  SimulatedEndpoint uncached(store.get(), LatencyProfile::Local(),
                             /*enable_cache=*/false);

  const std::vector<std::string> pool = QueryPool();
  for (int round = 0; round < 3; ++round) {
    for (const std::string& q : pool) {
      auto a = cached.Query(q);
      auto b = uncached.Query(q);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_TRUE(a.value().status.ok() && b.value().status.ok());
      ASSERT_EQ(a.value().table.ToTsv(), b.value().table.ToTsv());
    }
  }
  CacheStats stats = cached.answer_cache_stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GT(stats.evictions, 0u)
      << "6 distinct queries through a 2-entry cache must evict";
}

// Concurrent hammer, run under TSan in the sanitize suite: phases of
// concurrent cache-on queries (hits and misses racing on the sharded LRU)
// alternate with commits. Within a phase the head version does not change,
// so every concurrent answer must equal the phase's serial reference, hit
// or miss.
TEST(CacheConcurrencyTest, HammeredCacheStaysByteIdenticalAcrossPhases) {
  auto store = test::SparqlStore([](rdf::Graph* g) { BuildGraph(g, 60); });
  SimulatedEndpoint cached(store.get(), LatencyProfile::Local(),
                           /*enable_cache=*/true);
  AdmissionOptions adm;
  adm.max_in_flight = 8;
  adm.max_queue = 32;
  adm.base_timeout_ms = 0;  // no derived deadline under TSan slowdown
  cached.set_admission(adm);
  SimulatedEndpoint reference(store.get(), LatencyProfile::Local(),
                              /*enable_cache=*/false);
  const std::vector<std::string> pool = QueryPool();

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 10;
  for (int phase = 0; phase < 3; ++phase) {
    std::vector<std::string> ref(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      auto r = reference.Query(pool[i]);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r.value().status.ok());
      ref[i] = r.value().table.ToTsv();
    }

    std::atomic<int> failures{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t, phase] {
        std::mt19937 rng(static_cast<uint32_t>(phase * 131 + t));
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const size_t qi = rng() % pool.size();
          auto r = cached.Query(pool[qi]);
          if (!r.ok() || !r.value().status.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (r.value().table.ToTsv() != ref[qi]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0) << "phase " << phase;
    EXPECT_EQ(mismatches.load(), 0)
        << "phase " << phase << ": a concurrent answer diverged";

    // Phase boundary: all queries have drained; a commit touching every
    // pool query's footprint invalidates the cached answers.
    Status up = test::CommitUpdate(store.get(), UpdateFor(phase * 3));
    ASSERT_TRUE(up.ok()) << up.ToString();
  }

  CacheStats stats = cached.answer_cache_stats();
  EXPECT_GT(stats.hits, 0u) << "the hammer never hit the cache";
  EXPECT_GE(stats.invalidations, 1u);
}

// Concurrent-writer poison suite (the PR 5 cancelled-fill poison test,
// upgraded to a live writer): readers fill the cache from pinned MVCC
// snapshots while a writer commits between / during those fills. A fill
// computed against snapshot N is stamped with N's footprint epochs, so once
// the writer publishes N+1 having touched the footprint, the entry must
// revalidate as stale — a reader on the newer snapshot must never be served
// the older fill. Runs under TSan in the sanitize suite.
void RunConcurrentWriterPoison(uint32_t seed, int reader_threads) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " readers=" + std::to_string(reader_threads));
  auto base = std::make_unique<rdf::Graph>();
  BuildGraph(base.get(), 60);
  rdf::MvccGraph mvcc(std::move(base));
  SimulatedEndpoint cached(&mvcc, LatencyProfile::Local(),
                           /*enable_cache=*/true);
  AdmissionOptions adm;
  adm.max_in_flight = 8;
  adm.max_queue = 64;
  adm.base_timeout_ms = 0;  // no derived deadline under TSan slowdown
  cached.set_admission(adm);

  const std::vector<std::string> pool = QueryPool();
  constexpr int kCommits = 12;
  constexpr int kQueriesPerThread = 16;

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(reader_threads));
  std::atomic<bool> writer_done{false};
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(seed * 977 + static_cast<uint32_t>(t));
      int i = 0;
      // Keep filling until the writer is done so late commits always race
      // at least one in-flight fill.
      while (i < kQueriesPerThread || !writer_done.load()) {
        auto r = cached.Query(pool[rng() % pool.size()]);
        if (!r.ok() || !r.value().status.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
        if (i > kQueriesPerThread * 50) break;  // writer stalled; bail out
      }
    });
  }

  std::thread writer([&] {
    for (int c = 0; c < kCommits; ++c) {
      if (c % 2 == 0) {
        // Touches ex:price — inside every pool footprint, so fills raced
        // by this commit must die.
        mvcc.Insert(rdf::Term::Iri(kEx + "poison" + std::to_string(c)),
                    rdf::Term::Iri(kEx + "price"),
                    rdf::Term::Integer(5000 + c));
      } else {
        // Touches a predicate no pool query reads: entries stay valid,
        // which is what keeps the hit counter nonzero below.
        mvcc.Insert(rdf::Term::Iri(kEx + "poison" + std::to_string(c)),
                    rdf::Term::Iri(kEx + "unrelatedPoke"),
                    rdf::Term::Integer(c));
      }
      auto epoch = mvcc.Commit();
      if (!epoch.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& th : readers) th.join();
  ASSERT_EQ(failures.load(), 0);

  // The race is over; the head snapshot is the only truth. Every cached
  // answer — including a forced second read that must be a hit — has to
  // byte-match a fresh uncached execution against head.
  SimulatedEndpoint uncached(&mvcc, LatencyProfile::Local(),
                             /*enable_cache=*/false);
  for (const std::string& q : pool) {
    auto fresh = uncached.Query(q);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(fresh.value().status.ok());
    auto first = cached.Query(q);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value().status.ok());
    EXPECT_EQ(first.value().table.ToTsv(), fresh.value().table.ToTsv())
        << "a stale fill survived the writer's commits";
    auto second = cached.Query(q);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.value().cache_hit);
    EXPECT_EQ(second.value().table.ToTsv(), fresh.value().table.ToTsv());
  }
  EXPECT_GT(cached.answer_cache_stats().hits, 0u);
}

TEST(CachePoisonTest, ConcurrentWriterSeed1OneReader) {
  RunConcurrentWriterPoison(1, 1);
}
TEST(CachePoisonTest, ConcurrentWriterSeed2OneReader) {
  RunConcurrentWriterPoison(2, 1);
}
TEST(CachePoisonTest, ConcurrentWriterSeed3OneReader) {
  RunConcurrentWriterPoison(3, 1);
}
TEST(CachePoisonTest, ConcurrentWriterSeed1FourReaders) {
  RunConcurrentWriterPoison(1, 4);
}
TEST(CachePoisonTest, ConcurrentWriterSeed2FourReaders) {
  RunConcurrentWriterPoison(2, 4);
}
TEST(CachePoisonTest, ConcurrentWriterSeed3FourReaders) {
  RunConcurrentWriterPoison(3, 4);
}

// ClearCache between drained phases: the reset path (entries dropped, hit
// counters zeroed) followed by a refill, exercised under the TSan build.
TEST(CacheConcurrencyTest, ClearBetweenPhasesRestartsHitRateMath) {
  auto store = test::SparqlStore([](rdf::Graph* g) { BuildGraph(g, 60); });
  SimulatedEndpoint cached(store.get(), LatencyProfile::Local(),
                           /*enable_cache=*/true);
  const std::vector<std::string> pool = QueryPool();
  for (int phase = 0; phase < 2; ++phase) {
    for (const std::string& q : pool) {
      auto r1 = cached.Query(q);
      auto r2 = cached.Query(q);
      ASSERT_TRUE(r1.ok() && r2.ok());
      ASSERT_TRUE(r2.value().cache_hit);
    }
    EXPECT_EQ(cached.cache_hits(), pool.size());
    EXPECT_EQ(cached.answer_cache_stats().hits, pool.size());
    cached.ClearCache();
    EXPECT_EQ(cached.cache_hits(), 0u);
    EXPECT_EQ(cached.answer_cache_stats().hits, 0u);
    EXPECT_EQ(cached.answer_cache_stats().entries, 0u);
  }
}

// Result tables hold ids into the term dictionary every MVCC version shares.
// A served answer, its cached copy and a hit copy must all stay renderable
// after later commits intern new terms and delete every triple the answer
// came from — and after the endpoint and the store themselves are gone
// (the tables keep the dictionary alive). ASan builds check the lifetimes.
TEST(ResultLifetimeTest, AnswersOutliveCommitsAndTheStore) {
  auto base = std::make_unique<rdf::Graph>();
  BuildGraph(base.get(), 40);
  auto mvcc = std::make_unique<rdf::MvccGraph>(std::move(base));
  auto cached = std::make_unique<SimulatedEndpoint>(
      mvcc.get(), LatencyProfile::Local(), /*enable_cache=*/true);
  const std::string q = QueryPool()[4];  // ids and literals, many rows
  auto miss = cached->Query(q);
  auto hit = cached->Query(q);
  ASSERT_TRUE(miss.ok() && hit.ok());
  ASSERT_TRUE(hit.value().cache_hit);
  ASSERT_GT(miss.value().table.num_rows(), 0u);
  const sparql::ResultTable copy = hit.value().table;
  const std::string json = sparql::WriteResultsJson(miss.value().table);
  EXPECT_EQ(sparql::WriteResultsJson(hit.value().table), json);

  const rdf::Term price = rdf::Term::Iri(kEx + "price");
  for (int c = 0; c < 6; ++c) {
    mvcc->Insert(rdf::Term::Iri(kEx + "fresh" + std::to_string(c)), price,
                 rdf::Term::Literal("new term " + std::to_string(c)));
    ASSERT_TRUE(mvcc->Commit().ok());
  }
  mvcc->Remove(nullptr, &price, nullptr);
  ASSERT_TRUE(mvcc->Commit().ok());
  // Every version shares the one dictionary the answers index.
  EXPECT_EQ(mvcc->Snapshot().graph->shared_terms(), miss.value().table.dict());
  auto after = cached->Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().cache_hit);
  EXPECT_EQ(after.value().table.num_rows(), 0u);

  cached.reset();
  mvcc.reset();
  EXPECT_EQ(sparql::WriteResultsJson(miss.value().table), json);
  EXPECT_EQ(sparql::WriteResultsJson(hit.value().table), json);
  EXPECT_EQ(sparql::WriteResultsJson(copy), json);
}

// Readers keep rendering cached answers while a writer commits fresh terms
// into the dictionary those answers index (a predicate no reader touches,
// so the entries stay valid and are served as hits). Runs under TSan in the
// sanitize suite: appends to the shared table race lock-free reads of it.
TEST(SharedDictionaryTest, ReadersRenderCachedTablesWhileWriterInterns) {
  auto base = std::make_unique<rdf::Graph>();
  BuildGraph(base.get(), 60);
  rdf::MvccGraph mvcc(std::move(base));
  SimulatedEndpoint cached(&mvcc, LatencyProfile::Local(),
                           /*enable_cache=*/true);
  AdmissionOptions adm;
  adm.max_in_flight = 8;
  adm.max_queue = 64;
  adm.base_timeout_ms = 0;  // no derived deadline under TSan slowdown
  cached.set_admission(adm);

  const std::vector<std::string> pool = QueryPool();
  const std::vector<std::string> queries = {pool[0], pool[4]};
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    auto r = cached.Query(q);
    ASSERT_TRUE(r.ok() && r.value().status.ok());
    expected.push_back(sparql::WriteResultsJson(r.value().table));
  }

  constexpr int kReaders = 4;
  constexpr int kCommits = 16;
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 8 || !writer_done.load(); ++i) {
        const size_t k = static_cast<size_t>(i + t) % queries.size();
        auto r = cached.Query(queries[k]);
        if (!r.ok() || !r.value().status.ok() ||
            sparql::WriteResultsJson(r.value().table) != expected[k]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (i > 4000) break;  // writer stalled; bail out
      }
    });
  }
  std::thread writer([&] {
    for (int c = 0; c < kCommits; ++c) {
      for (int k = 0; k < 40; ++k) {
        const std::string tag = std::to_string(c) + "_" + std::to_string(k);
        mvcc.Insert(rdf::Term::Iri(kEx + "fresh" + tag),
                    rdf::Term::Iri(kEx + "unrelatedPoke"),
                    rdf::Term::Literal("fresh literal " + tag));
      }
      if (!mvcc.Commit().ok()) failures.fetch_add(1);
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cached.answer_cache_stats().hits, 0u);
}

}  // namespace
}  // namespace rdfa::endpoint
