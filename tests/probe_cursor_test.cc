// Differential coverage for the galloping probes: GallopPartition against
// std::partition_point, Graph::ProbeCursor against a reference built here
// with std::sort and std::equal_range over the permuted triples, and the
// hash join's per-morsel fallback cursors against that reference. Graph
// cases run on the heap graph and on the same graph mapped from an RDFA3
// snapshot.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/gallop.h"
#include "rdf/binary_io.h"
#include "sparql/bgp.h"
#include "test_paths.h"
#include "solution_rows.h"

namespace rdfa {
namespace {

using rdf::Graph;
using rdf::kNoTermId;
using rdf::TermId;
using rdf::TripleId;

// ---- GallopPartition ------------------------------------------------------

TEST(GallopTest, MatchesPartitionPointFromEveryResumePoint) {
  std::mt19937_64 rng(7);
  for (size_t n : {0u, 1u, 2u, 3u, 17u, 64u, 1000u}) {
    std::vector<int> v(n);
    // Values 0..n/8: runs of equal values longer than several gallop steps.
    for (int& x : v) x = static_cast<int>(rng() % (n / 8 + 2));
    std::sort(v.begin(), v.end());
    for (int target = -1; target <= static_cast<int>(n / 8) + 3; ++target) {
      auto below = [target](int x) { return x < target; };
      auto not_above = [target](int x) { return x <= target; };
      const auto lo = std::partition_point(v.begin(), v.end(), below);
      const auto hi = std::partition_point(v.begin(), v.end(), not_above);
      // Any resume point at or before the answer finds it.
      for (auto from = v.begin();; ++from) {
        EXPECT_EQ(GallopPartition(from, v.end(), below), lo)
            << "n=" << n << " target=" << target;
        if (from == lo) break;
      }
      EXPECT_EQ(GallopPartition(lo, v.end(), not_above), hi);
    }
  }
}

TEST(GallopTest, AscendingProbesResumeLikeACursor) {
  std::mt19937_64 rng(11);
  std::vector<uint32_t> v(5000);
  for (uint32_t& x : v) x = static_cast<uint32_t>(rng() % 20000);
  std::sort(v.begin(), v.end());
  std::vector<uint32_t> probes(300);
  for (uint32_t& x : probes) x = static_cast<uint32_t>(rng() % 21000);
  std::sort(probes.begin(), probes.end());
  auto it = v.begin();
  for (uint32_t p : probes) {
    it = GallopPartition(it, v.end(), [p](uint32_t x) { return x < p; });
    EXPECT_EQ(it, std::lower_bound(v.begin(), v.end(), p));
  }
}

// ---- ProbeCursor ----------------------------------------------------------

using Lanes = std::array<TermId, 3>;  // (s, p, o)

// The reference: every triple permuted into each primary permutation's
// lane order and sorted; a probe narrows its ChoosePerm permutation's bound
// prefix with std::equal_range and filters the remaining bound lanes — the
// order ForEachMatch promises.
class Reference {
 public:
  explicit Reference(const std::vector<TripleId>& triples)
      : triples_(triples) {
    for (int perm = 0; perm < 3; ++perm) {
      const int* lanes = Graph::kPermLanes[perm];
      for (const TripleId& t : triples) {
        const Lanes l = {t.s, t.p, t.o};
        keys_[perm].push_back({l[lanes[0]], l[lanes[1]], l[lanes[2]]});
      }
      std::sort(keys_[perm].begin(), keys_[perm].end());
    }
  }

  std::vector<TripleId> Match(TermId s, TermId p, TermId o) const {
    const bool bound[3] = {s != kNoTermId, p != kNoTermId, o != kNoTermId};
    const Lanes want = {s, p, o};
    if (!bound[0] && !bound[1] && !bound[2]) return triples_;
    const Graph::Perm perm = Graph::ChoosePerm(bound[0], bound[1], bound[2]);
    const int* lanes = Graph::kPermLanes[perm];
    int prefix = 0;
    while (prefix < 3 && bound[lanes[prefix]]) ++prefix;
    const Lanes probe = {want[lanes[0]], want[lanes[1]], want[lanes[2]]};
    auto less = [prefix](const Lanes& a, const Lanes& b) {
      for (int i = 0; i < prefix; ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
      }
      return false;
    };
    const std::vector<Lanes>& keys = keys_[perm];
    const auto [lo, hi] =
        std::equal_range(keys.begin(), keys.end(), probe, less);
    std::vector<TripleId> out;
    for (auto it = lo; it != hi; ++it) {
      Lanes spo{};
      for (int i = 0; i < 3; ++i) spo[lanes[i]] = (*it)[i];
      bool match = true;
      for (int i = 0; i < 3; ++i) {
        match = match && (!bound[i] || spo[i] == want[i]);
      }
      if (match) out.push_back({spo[0], spo[1], spo[2]});
    }
    return out;
  }

 private:
  std::vector<TripleId> triples_;
  std::vector<Lanes> keys_[3];
};

std::vector<TripleId> Collect(Graph::ProbeCursor* cursor, const Lanes& k) {
  std::vector<TripleId> out;
  cursor->ForEachMatch(k[0], k[1], k[2],
                       [&](const TripleId& t) { out.push_back(t); });
  return out;
}

// Round-trips `g` through an RDFA3 snapshot and opens it as a mapped graph.
std::unique_ptr<Graph> OpenMapped(const Graph& g) {
  const std::string path = test::UniqueTempPath("probe.rdfa");
  EXPECT_TRUE(rdf::SaveBinaryFile(g, path).ok());
  auto mapped = rdf::OpenMappedSnapshot(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().message();
  std::remove(path.c_str());  // the mapping outlives the directory entry
  return std::move(mapped).value();
}

// A random graph over few subjects, predicates and objects, so ranges hold
// long runs of one key.
std::unique_ptr<Graph> RandomGraph(uint64_t seed, size_t triples) {
  auto g = std::make_unique<Graph>();
  std::vector<TermId> ids;
  for (int i = 0; i < 90; ++i) {
    ids.push_back(g->terms().Intern(
        rdf::Term::Iri("urn:t:" + std::to_string(i))));
  }
  std::mt19937_64 rng(seed);
  while (g->size() < triples) {
    g->AddIds({ids[rng() % 60], ids[60 + rng() % 4], ids[rng() % 90]});
  }
  return g;
}

// (seed, mapped backend)
class ProbeCursorTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {
 protected:
  void SetUp() override {
    const auto [seed, mapped] = GetParam();
    heap_ = RandomGraph(seed, 3000);
    if (mapped) mapped_ = OpenMapped(*heap_);
    // A mapped graph enumerates in SPO order, a heap graph in insertion
    // order: the unnarrowed scan's reference is the backend's own list.
    triples_ = graph().triples();
    reference_ = std::make_unique<Reference>(triples_);
  }
  const Graph& graph() const { return mapped_ ? *mapped_ : *heap_; }

  // Random keys over the graph's ids, plus ids past the last entry of
  // every index; bound lanes per `mask` (bit 0 = s), or per a random
  // nonzero mask each when `mask` is 0.
  std::vector<Lanes> Keys(uint64_t seed, size_t n, unsigned mask = 0) const {
    std::mt19937_64 rng(seed);
    const TermId past = static_cast<TermId>(graph().terms().size()) + 5;
    auto id = [&] {
      return rng() % 10 == 0 ? past
                             : static_cast<TermId>(rng() % (past - 4));
    };
    std::vector<Lanes> keys;
    for (size_t i = 0; i < n; ++i) {
      const unsigned m =
          mask != 0 ? mask : 1 + static_cast<unsigned>(rng() % 7);
      keys.push_back({m & 1 ? id() : kNoTermId, m & 2 ? id() : kNoTermId,
                      m & 4 ? id() : kNoTermId});
    }
    return keys;
  }

  void ExpectProbes(const std::vector<Lanes>& keys) const {
    Graph::ProbeCursor cursor(graph());
    for (const Lanes& k : keys) {
      const std::vector<TripleId> want = reference_->Match(k[0], k[1], k[2]);
      ASSERT_EQ(Collect(&cursor, k), want)
          << "key (" << k[0] << ", " << k[1] << ", " << k[2] << ")";
      std::vector<TripleId> once;
      graph().ForEachMatch(k[0], k[1], k[2],
                           [&](const TripleId& t) { once.push_back(t); });
      ASSERT_EQ(once, want);
    }
  }

  std::unique_ptr<Graph> heap_;
  std::unique_ptr<Graph> mapped_;
  std::vector<TripleId> triples_;
  std::unique_ptr<Reference> reference_;
};

TEST_P(ProbeCursorTest, AscendingKeysPerPattern) {
  // One cursor per boundness pattern, keys ascending in its permutation:
  // every probe after the first gallops.
  for (unsigned mask = 1; mask < 8; ++mask) {
    std::vector<Lanes> keys = Keys(mask, 400, mask);
    const Graph::Perm perm = Graph::ChoosePerm(
        (mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0);
    const int* lanes = Graph::kPermLanes[perm];
    std::sort(keys.begin(), keys.end(), [&](const Lanes& a, const Lanes& b) {
      for (int i = 0; i < 3; ++i) {
        if (a[lanes[i]] != b[lanes[i]]) return a[lanes[i]] < b[lanes[i]];
      }
      return false;
    });
    ExpectProbes(keys);
  }
}

TEST_P(ProbeCursorTest, KeysMovingBackwardsAndMixedPatterns) {
  // Random order: keys move backwards and the permutation changes between
  // probes, so the cursor falls back to full searches.
  ExpectProbes(Keys(std::get<0>(GetParam()) + 100, 1500));
  std::vector<Lanes> descending = Keys(std::get<0>(GetParam()) + 200, 300);
  for (Lanes& k : descending) k = {k[0], kNoTermId, kNoTermId};
  std::sort(descending.rbegin(), descending.rend());
  ExpectProbes(descending);
}

TEST_P(ProbeCursorTest, WholeRunsAndTheEmptyGraph) {
  // Bound predicate, wildcard lanes after it: each probe spans a run of
  // ~750 entries, many gallop steps wide.
  std::vector<Lanes> keys;
  for (const TripleId& t : triples_) {
    keys.push_back({kNoTermId, t.p, kNoTermId});
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  keys.push_back({kNoTermId, kNoTermId, kNoTermId});
  ExpectProbes(keys);

  Graph empty;
  Graph::ProbeCursor cursor(empty);
  for (const Lanes& k : Keys(3, 50)) EXPECT_TRUE(Collect(&cursor, k).empty());
}

// ---- hash join fallback, one cursor per morsel ----------------------------

TEST_P(ProbeCursorTest, HashFallbackRowsMatchTheReference) {
  // Pattern ?x <p> ?y. The first row binds ?x, so the join hashes on s;
  // rows with ?x unbound and ?y bound deviate and fall back to index probes
  // — ascending runs and descending ones, spread over several morsels.
  const TermId p = heap_->terms().Find(rdf::Term::Iri("urn:t:61"));
  ASSERT_NE(p, kNoTermId);
  std::vector<TermId> subjects, objects;
  for (const TripleId& t : triples_) {
    if (t.p == p) subjects.push_back(t.s);
    objects.push_back(t.o);
  }
  std::mt19937_64 rng(std::get<0>(GetParam()));
  test::RowList rows;
  for (int i = 0; i < 900; ++i) {
    if (i % 3 == 0) {
      rows.push_back({subjects[rng() % subjects.size()], kNoTermId});
    } else {
      rows.push_back({kNoTermId, objects[rng() % objects.size()]});
    }
  }
  std::swap(rows[0], rows[3]);  // keep a bound ?x first
  std::sort(rows.begin() + 300, rows.begin() + 600);
  std::sort(rows.begin() + 600, rows.end(),
            [](const auto& a, const auto& b) { return a > b; });

  test::RowList want;
  for (const std::vector<TermId>& row : rows) {
    for (const TripleId& t : reference_->Match(row[0], p, row[1])) {
      want.push_back({t.s, t.o});
    }
  }
  sparql::CompiledPattern pattern;
  pattern.s_var = 0;
  pattern.p_id = p;
  pattern.o_var = 1;
  for (int threads : {1, 4}) {
    sparql::ExecStats stats;
    sparql::JoinOptions opts;
    opts.threads = threads;
    opts.stats = &stats;
    sparql::SolutionTable got = test::Table(2, rows);
    ASSERT_TRUE(
        sparql::JoinBgp(graph(), {pattern}, 2, false, opts, &got).ok());
    EXPECT_EQ(stats.hash_builds, 1u);
    if (threads > 1) {
      EXPECT_GT(stats.morsel_count, 1u);
    }
    EXPECT_EQ(test::Rows(got), want) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBackends, ProbeCursorTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u), ::testing::Bool()),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_mapped" : "_heap");
    });

}  // namespace
}  // namespace rdfa
