// Coverage for the PR-3 query-path additions: per-predicate GraphStats,
// longest-bound-prefix index selection, the adaptive order-preserving hash
// join (byte-identity with serial NLJ across seeds, thread counts and
// reorder settings, with every test asserting the hash path really ran), a
// deterministic deadline trip inside the hash-build loop, and the versioned
// binary snapshot stats block.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_context.h"
#include "rdf/binary_io.h"
#include "rdf/graph.h"
#include "sparql/bgp.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "workload/products.h"

namespace rdfa {
namespace {

using rdf::Graph;
using rdf::GraphStats;
using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;

const std::string kEx = workload::kExampleNs;
constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

Term Iri(const std::string& local) { return Term::Iri("urn:" + local); }

bool UsedHash(const sparql::ExecStats& stats) {
  return std::find(stats.join_strategy.begin(), stats.join_strategy.end(),
                   'H') != stats.join_strategy.end();
}

TEST(GraphStatsTest, PerPredicateCountsAndFanout) {
  Graph g;
  // p1: s1 -> {o1, o2}, s2 -> {o1}; p2: s1 -> o3.
  g.Add(Iri("s1"), Iri("p1"), Iri("o1"));
  g.Add(Iri("s1"), Iri("p1"), Iri("o2"));
  g.Add(Iri("s2"), Iri("p1"), Iri("o1"));
  g.Add(Iri("s1"), Iri("p2"), Iri("o3"));

  const GraphStats& stats = g.Stats();
  EXPECT_EQ(stats.triples, 4u);
  EXPECT_EQ(stats.distinct_subjects, 2u);
  EXPECT_EQ(stats.distinct_predicates, 2u);
  EXPECT_EQ(stats.distinct_objects, 3u);

  TermId p1 = g.terms().Find(Iri("p1"));
  ASSERT_NE(p1, kNoTermId);
  const rdf::PredicateStats* ps = stats.ForPredicate(p1);
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->triples, 3u);
  EXPECT_EQ(ps->distinct_subjects, 2u);
  EXPECT_EQ(ps->distinct_objects, 2u);
  EXPECT_DOUBLE_EQ(ps->avg_fanout_so(), 1.5);
  EXPECT_DOUBLE_EQ(ps->avg_fanout_os(), 1.5);

  EXPECT_EQ(stats.ForPredicate(kNoTermId), nullptr);
}

TEST(GraphStatsTest, MutationInvalidatesAndRecomputes) {
  Graph g;
  g.Add(Iri("s"), Iri("p"), Iri("o"));
  EXPECT_EQ(g.Stats().triples, 1u);
  g.Add(Iri("s"), Iri("p"), Iri("o2"));
  EXPECT_EQ(g.Stats().triples, 2u);
  g.RemoveMatching(kNoTermId, kNoTermId, g.terms().Find(Iri("o2")));
  EXPECT_EQ(g.Stats().triples, 1u);
}

TEST(GraphStatsTest, RestoreStatsSurvivesIndexRebuildUntilMutation) {
  Graph g;
  g.Add(Iri("s"), Iri("p"), Iri("o"));
  GraphStats fake;
  fake.triples = 999;
  g.RestoreStats(fake);
  // The lazy index rebuild must keep the restored stats...
  g.Freeze();
  EXPECT_EQ(g.Stats().triples, 999u);
  // ...but a mutation invalidates them like any other derived state.
  g.Add(Iri("s2"), Iri("p"), Iri("o"));
  EXPECT_EQ(g.Stats().triples, 2u);
}

TEST(GraphIndexSelectionTest, ChoosePermUsesLongestBoundPrefix) {
  EXPECT_EQ(Graph::ChoosePerm(true, false, false), Graph::kPermSPO);
  EXPECT_EQ(Graph::ChoosePerm(false, true, false), Graph::kPermPOS);
  EXPECT_EQ(Graph::ChoosePerm(false, false, true), Graph::kPermOSP);
  EXPECT_EQ(Graph::ChoosePerm(true, true, false), Graph::kPermSPO);
  EXPECT_EQ(Graph::ChoosePerm(false, true, true), Graph::kPermPOS);
  // The fixed case: s+o bound must take OSP's (o, s) two-lane prefix, not
  // SPO narrowed on s alone.
  EXPECT_EQ(Graph::ChoosePerm(true, false, true), Graph::kPermOSP);
  EXPECT_EQ(Graph::ChoosePerm(true, true, true), Graph::kPermSPO);
}

TEST(GraphIndexSelectionTest, EstimateMatchIsExactForSubjectObjectPatterns) {
  Graph g;
  // s1 has many p-neighbours but only one triple reaching o1.
  for (int i = 0; i < 20; ++i) {
    g.Add(Iri("s1"), Iri("p" + std::to_string(i)), Iri("x" + std::to_string(i)));
  }
  g.Add(Iri("s1"), Iri("link"), Iri("o1"));
  TermId s1 = g.terms().Find(Iri("s1"));
  TermId o1 = g.terms().Find(Iri("o1"));
  ASSERT_NE(s1, kNoTermId);
  ASSERT_NE(o1, kNoTermId);
  // With first-bound-lane selection this was 21 (the whole s1 range); the
  // longest-bound-prefix fix narrows on (o1, s1) and is exact.
  EXPECT_EQ(g.EstimateMatch(s1, kNoTermId, o1), 1u);
  EXPECT_EQ(g.CountMatch(s1, kNoTermId, o1), 1u);
}

// ---- binary snapshot versioning ------------------------------------------

// Byte length of the v2 stats block for `stats`.
size_t StatsBlockSize(const GraphStats& stats) {
  return 5 * 8 + stats.by_predicate.size() * (4 + 3 * 8);
}

TEST(BinaryIoStatsTest, V2RoundTripRestoresStatsWithoutRecompute) {
  Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 50;
  workload::GenerateProductKg(&g, opt);
  const GraphStats original = g.Stats();

  std::string blob = rdf::SaveBinary(g, rdf::kSnapshotVersionV2);
  ASSERT_EQ(blob.compare(0, 6, "RDFA2\n"), 0);

  // Perturb the saved global triple count: if the loader *recomputed* the
  // stats the perturbation would vanish, so observing it proves the
  // restore path.
  const size_t stats_off = blob.size() - StatsBlockSize(original);
  blob[stats_off] = static_cast<char>(0x39);
  blob[stats_off + 1] = static_cast<char>(0x30);  // triples = 0x3039 = 12345
  for (int i = 2; i < 8; ++i) blob[stats_off + i] = 0;

  Graph loaded;
  ASSERT_TRUE(rdf::LoadBinary(blob, &loaded).ok());
  EXPECT_EQ(loaded.size(), g.size());
  EXPECT_EQ(loaded.Stats().triples, 12345u);
  // Everything left untouched round-trips exactly.
  EXPECT_EQ(loaded.Stats().distinct_predicates, original.distinct_predicates);
  EXPECT_EQ(loaded.Stats().by_predicate.size(),
            original.by_predicate.size());
}

TEST(BinaryIoStatsTest, V1SnapshotStillLoadsAndRecomputes) {
  Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 50;
  workload::GenerateProductKg(&g, opt);
  const GraphStats original = g.Stats();

  // A v1 snapshot is the v2 payload minus the stats block, under the old
  // magic — exactly what a pre-stats build wrote.
  std::string blob = rdf::SaveBinary(g, rdf::kSnapshotVersionV2);
  blob.resize(blob.size() - StatsBlockSize(original));
  std::memcpy(blob.data(), "RDFA1\n", 6);

  Graph loaded;
  ASSERT_TRUE(rdf::LoadBinary(blob, &loaded).ok());
  EXPECT_EQ(loaded.size(), g.size());
  // Stats come back via recomputation and must match the originals.
  EXPECT_EQ(loaded.Stats().triples, original.triples);
  EXPECT_EQ(loaded.Stats().distinct_subjects, original.distinct_subjects);
  EXPECT_EQ(loaded.Stats().by_predicate.size(),
            original.by_predicate.size());
}

TEST(BinaryIoStatsTest, TruncatedStatsBlockIsAParseError) {
  Graph g;
  g.Add(Iri("s"), Iri("p"), Iri("o"));
  std::string blob = rdf::SaveBinary(g);
  Graph dst;
  EXPECT_EQ(rdf::LoadBinary(std::string_view(blob).substr(0, blob.size() - 4),
                            &dst)
                .code(),
            StatusCode::kParseError);
}

// ---- join-strategy equivalence -------------------------------------------

class JoinStrategyTest : public ::testing::Test {
 protected:
  static std::string RunTsv(rdf::Graph* g, const std::string& q, int threads,
                            bool reorder, sparql::JoinStrategy strategy,
                            sparql::ExecStats* stats = nullptr) {
    auto parsed = sparql::ParseQuery(q);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << q;
    if (!parsed.ok()) return "";
    sparql::Executor exec(g, reorder);
    exec.set_thread_count(threads);
    exec.set_join_strategy(strategy);
    auto res = exec.Execute(parsed.value());
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
    if (stats != nullptr) *stats = exec.stats();
    return res.ok() ? res.value().ToTsv() : std::string();
  }
};

TEST_F(JoinStrategyTest, AdaptiveIsByteIdenticalAcrossSeedsThreadsAndReorder) {
  const char* kQueries[] = {
      "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . }",
      "SELECT ?l ?m ?c ?g WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . "
      "?c ex:GDPPerCapita ?g . }",
      "SELECT ?l ?p ?c WHERE { ?l ex:manufacturer ?m . ?l ex:price ?p . "
      "?m ex:origin ?c . }",
      "SELECT ?l ?f WHERE { ?l ex:manufacturer ?m . ?m ex:founder ?f . }",
  };
  for (unsigned seed : {7u, 19u, 42u}) {
    rdf::Graph g;
    workload::ProductKgOptions opt;
    opt.laptops = 300;
    opt.seed = seed;
    workload::GenerateProductKg(&g, opt);
    // Source order runs the big range first, so hundreds of probe rows meet
    // a 20-company build side: adaptive must take the hash path somewhere in
    // each seed's corpus, or this test would compare NLJ with itself.
    size_t hash_runs = 0;
    for (const char* body : kQueries) {
      const std::string q = std::string(kPfx) + body;
      for (bool reorder : {false, true}) {
        // Reference: the serial nested-loop join under this pattern order.
        const std::string reference =
            RunTsv(&g, q, 1, reorder, sparql::JoinStrategy::kNestedLoop);
        for (int threads : {1, 4}) {
          EXPECT_EQ(RunTsv(&g, q, threads, reorder,
                           sparql::JoinStrategy::kNestedLoop),
                    reference)
              << "nlj seed=" << seed << " threads=" << threads
              << " reorder=" << reorder << "\n"
              << q;
          sparql::ExecStats stats;
          EXPECT_EQ(RunTsv(&g, q, threads, reorder,
                           sparql::JoinStrategy::kAdaptive, &stats),
                    reference)
              << "adaptive seed=" << seed << " threads=" << threads
              << " reorder=" << reorder << "\n"
              << q;
          if (UsedHash(stats)) ++hash_runs;
        }
      }
    }
    EXPECT_GT(hash_runs, 0u) << "seed=" << seed;
  }
}

TEST_F(JoinStrategyTest, AdaptiveEngagesHashOnProbeManyPattern) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 600;
  workload::GenerateProductKg(&g, opt);
  const std::string q =
      std::string(kPfx) +
      "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . }";
  sparql::ExecStats adaptive_stats;
  const std::string adaptive = RunTsv(&g, q, 1, /*reorder=*/false,
                                      sparql::JoinStrategy::kAdaptive,
                                      &adaptive_stats);
  sparql::ExecStats nlj_stats;
  const std::string nlj = RunTsv(&g, q, 1, /*reorder=*/false,
                                 sparql::JoinStrategy::kNestedLoop,
                                 &nlj_stats);
  EXPECT_EQ(adaptive, nlj);
  ASSERT_EQ(adaptive_stats.join_strategy.size(), 2u);
  EXPECT_EQ(adaptive_stats.join_strategy[0], 'N');
  EXPECT_EQ(adaptive_stats.join_strategy[1], 'H');
  EXPECT_EQ(adaptive_stats.hash_builds, 1u);
  EXPECT_GT(adaptive_stats.hash_probe_hits, 0u);
  // The point of the hash path: strictly fewer index rows enumerated.
  EXPECT_LT(adaptive_stats.rows_scanned[1], nlj_stats.rows_scanned[1]);
  // Strategy surfaces in the one-line summary (shell `stats` command).
  EXPECT_NE(adaptive_stats.Summary().find("strategy=[N,H]"),
            std::string::npos);
  EXPECT_NE(adaptive_stats.Summary().find("hash_builds=1"),
            std::string::npos);
  // And in the machine-readable form.
  EXPECT_NE(adaptive_stats.ToJson().find("\"join_strategy\":[\"N\",\"H\"]"),
            std::string::npos);
}

TEST_F(JoinStrategyTest, HeterogeneousRowsFallBackPerRowByteIdentically) {
  // Rows reaching a hash-joined pattern can disagree on which slots are
  // bound (e.g. after OPTIONAL/UNION). Drive JoinBgp directly with such a
  // mixed row set: rows with ?m bound probe the table, rows without fall
  // back to a per-row scan, and the concatenation must equal serial NLJ.
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 100;
  workload::GenerateProductKg(&g, opt);

  sparql::VarTable vars;
  sparql::TriplePattern tp{
      sparql::NodePattern::Var("m"),
      sparql::NodePattern::Const(Term::Iri(kEx + "origin")),
      sparql::NodePattern::Var("c")};
  std::vector<sparql::CompiledPattern> patterns = {
      sparql::CompileTriple(tp, &vars, g)};
  ASSERT_FALSE(patterns[0].impossible);

  std::vector<sparql::Binding> seed_rows;
  int next = 0;
  g.ForEachMatch(kNoTermId, g.terms().Find(Term::Iri(kEx + "manufacturer")),
                 kNoTermId, [&](const rdf::TripleId& t) {
                   sparql::Binding b(vars.size(), kNoTermId);
                   // Every third row arrives with ?m unbound.
                   if (++next % 3 != 0) b[0] = t.o;
                   seed_rows.push_back(std::move(b));
                 });
  ASSERT_GE(seed_rows.size(), 100u);

  // The first row has ?m bound, and >= 100 probes against a 20-company
  // build side clear kHashBuildFactor: adaptive builds the table.
  auto run = [&](sparql::JoinStrategy strategy, sparql::ExecStats* stats) {
    std::vector<sparql::Binding> rows = seed_rows;
    sparql::JoinOptions jopts;
    jopts.strategy = strategy;
    jopts.stats = stats;
    Status st = sparql::JoinBgp(g, patterns, vars.size(), /*reorder=*/false,
                                jopts, &rows);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return rows;
  };
  sparql::ExecStats nlj_stats, hash_stats;
  std::vector<sparql::Binding> nlj =
      run(sparql::JoinStrategy::kNestedLoop, &nlj_stats);
  std::vector<sparql::Binding> hash =
      run(sparql::JoinStrategy::kAdaptive, &hash_stats);
  ASSERT_TRUE(UsedHash(hash_stats)) << hash_stats.Summary();
  EXPECT_FALSE(UsedHash(nlj_stats));
  ASSERT_EQ(nlj.size(), hash.size());
  for (size_t i = 0; i < nlj.size(); ++i) {
    EXPECT_EQ(nlj[i], hash[i]) << "row " << i;
  }
}

TEST_F(JoinStrategyTest, DeadlineTripsInsideHashBuildDeterministically) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 1000;  // build range comfortably > one 512-row check
  workload::GenerateProductKg(&g, opt);
  g.Freeze();

  sparql::VarTable vars;
  sparql::TriplePattern tp1{
      sparql::NodePattern::Var("l"),
      sparql::NodePattern::Const(Term::Iri(kEx + "manufacturer")),
      sparql::NodePattern::Var("m")};
  sparql::TriplePattern tp2{
      sparql::NodePattern::Var("k"),
      sparql::NodePattern::Const(Term::Iri(kEx + "manufacturer")),
      sparql::NodePattern::Var("m")};
  std::vector<sparql::CompiledPattern> patterns = {
      sparql::CompileTriple(tp1, &vars, g),
      sparql::CompileTriple(tp2, &vars, g)};

  // Pairs sharing a manufacturer: ~1250 probe rows keyed on ?m against a
  // ~1250-row build side with dozens of matches per key, so adaptive
  // hashes. Counted checks: pattern-1 entry + exit, pattern-2 entry (all
  // "bgp-join"), then the hash build's 512-row check. Cancelling on the 4th
  // check therefore lands inside the build loop, every time.
  QueryContext ctx;
  ctx.CancelAfterChecks(4);
  sparql::ExecStats stats;
  sparql::JoinOptions jopts;
  jopts.stats = &stats;
  jopts.ctx = &ctx;
  std::vector<sparql::Binding> rows = {
      sparql::Binding(vars.size(), kNoTermId)};
  Status st =
      sparql::JoinBgp(g, patterns, vars.size(), /*reorder=*/false, jopts,
                      &rows);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_STREQ(ctx.trip_stage(), "hash-build");
  // The partial pattern's stats were still recorded before unwinding.
  ASSERT_EQ(stats.join_strategy.size(), 2u);
  EXPECT_EQ(stats.join_strategy[1], 'H');
  EXPECT_EQ(stats.rows_scanned[1], 512u);
}

}  // namespace
}  // namespace rdfa
