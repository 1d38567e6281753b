// Coverage for planner v2: the six-permutation index layer (secondary
// in-memory permutations, sort-aware 4-arg ChoosePerm, the streaming
// MergeCursor on both storage backends), the DP join-order search and plan
// annotation, and the merge-join execution path — byte-identity against the
// NLJ oracle across seeds, thread counts and backends, sideways information
// passing, deterministic cancellation trips inside the sieve-build and
// merge-advance loops, and plan-shape capture / replay reproducibility.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/query_context.h"
#include "endpoint/endpoint.h"
#include "rdf/binary_io.h"
#include "rdf/graph.h"
#include "rdf/mvcc.h"
#include "sparql/bgp.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/planner.h"
#include "test_paths.h"
#include "workload/products.h"

namespace rdfa {
namespace {

using rdf::Graph;
using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;

const std::string kEx = workload::kExampleNs;
constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

std::unique_ptr<Graph> BuildKg(uint64_t seed, size_t laptops) {
  auto g = std::make_unique<Graph>();
  workload::ProductKgOptions opt;
  opt.laptops = laptops;
  opt.seed = seed;
  workload::GenerateProductKg(g.get(), opt);
  return g;
}

// Round-trips `g` through an RDFA3 snapshot and opens it as a mapped graph.
std::unique_ptr<Graph> OpenMapped(const Graph& g, const std::string& tag) {
  const std::string path = test::UniqueTempPath(tag + ".rdfa");
  EXPECT_TRUE(rdf::SaveBinaryFile(g, path).ok());
  auto mapped = rdf::OpenMappedSnapshot(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().message();
  std::remove(path.c_str());  // the mapping outlives the directory entry
  return std::move(mapped).value();
}

struct RunOpts {
  int threads = 1;
  sparql::JoinStrategy strategy = sparql::JoinStrategy::kAdaptive;
  bool use_dp = false;
  bool reorder = true;
  bool push_filters = true;
};

std::string RunTsv(Graph* g, const std::string& q, const RunOpts& o,
                   sparql::ExecStats* stats = nullptr) {
  auto parsed = sparql::ParseQuery(q);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << q;
  if (!parsed.ok()) return "";
  sparql::Executor exec(g, o.reorder, o.push_filters);
  exec.set_thread_count(o.threads);
  exec.set_join_strategy(o.strategy);
  exec.set_use_dp(o.use_dp);
  auto res = exec.Execute(parsed.value());
  EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
  if (stats != nullptr) *stats = exec.stats();
  return res.ok() ? res.value().ToTsv() : std::string();
}

std::vector<std::string> SortedLines(const std::string& tsv) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < tsv.size()) {
    size_t nl = tsv.find('\n', start);
    if (nl == std::string::npos) nl = tsv.size();
    lines.push_back(tsv.substr(start, nl - start));
    start = nl + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// "?x" compiles to a variable, anything else to an ex: IRI constant.
sparql::CompiledPattern Pat(const Graph& g, sparql::VarTable* vars,
                            const std::string& s, const std::string& p,
                            const std::string& o) {
  auto node = [&](const std::string& n) {
    return n[0] == '?' ? sparql::NodePattern::Var(n.substr(1))
                       : sparql::NodePattern::Const(Term::Iri(kEx + n));
  };
  sparql::TriplePattern tp{node(s), node(p), node(o)};
  sparql::CompiledPattern cp = sparql::CompileTriple(tp, vars, g);
  EXPECT_FALSE(cp.impossible) << s << " " << p << " " << o;
  return cp;
}

// ---- 4-arg ChoosePerm ----------------------------------------------------

TEST(ChoosePermOrderTest, PrefersRequestedSortLaneAmongLongestPrefixes) {
  // No bound lane: the preference picks the permutation sorted on it.
  EXPECT_EQ(Graph::ChoosePerm(false, false, false, 0), Graph::kPermSPO);
  EXPECT_EQ(Graph::ChoosePerm(false, false, false, 1), Graph::kPermPOS);
  EXPECT_EQ(Graph::ChoosePerm(false, false, false, 2), Graph::kPermOSP);
  // p bound: POS and PSO tie on prefix; the next lane decides.
  EXPECT_EQ(Graph::ChoosePerm(false, true, false, 2), Graph::kPermPOS);
  EXPECT_EQ(Graph::ChoosePerm(false, true, false, 0), Graph::kPermPSO);
  // s bound, sort on o: only the secondary SOP provides (s, o, ...).
  EXPECT_EQ(Graph::ChoosePerm(true, false, false, 2), Graph::kPermSOP);
  // p+o bound, sort on s: POS and OPS both satisfy; the primary wins.
  EXPECT_EQ(Graph::ChoosePerm(false, true, true, 0), Graph::kPermPOS);
  // s+o bound, sort on p: OSP's (o, s, p) prefix already delivers it.
  EXPECT_EQ(Graph::ChoosePerm(true, false, true, 1), Graph::kPermOSP);
  // No (or an unsatisfiable) preference degrades to the 3-arg choice.
  EXPECT_EQ(Graph::ChoosePerm(false, false, false, -1), Graph::kPermSPO);
  EXPECT_EQ(Graph::ChoosePerm(true, false, true, -1), Graph::kPermOSP);
  EXPECT_EQ(Graph::ChoosePerm(true, true, true, 2), Graph::kPermSPO);
}

// ---- secondary permutations ----------------------------------------------

TEST(SecondaryPermTest, EnumerateInOwnSortOrderWithExactPrefixEstimates) {
  auto g = BuildKg(11, 60);
  struct Case {
    Graph::Perm perm;
    int lanes[3];  // triple lanes in key order
  };
  const Case cases[] = {{Graph::kPermPSO, {1, 0, 2}},
                        {Graph::kPermSOP, {0, 2, 1}},
                        {Graph::kPermOPS, {2, 1, 0}}};
  for (const Case& c : cases) {
    std::vector<rdf::TripleId> out;
    g->ForEachInPerm(c.perm, kNoTermId, kNoTermId, kNoTermId,
                     [&](const rdf::TripleId& t) { out.push_back(t); });
    ASSERT_EQ(out.size(), g->size()) << "perm " << c.perm;
    auto key = [&](const rdf::TripleId& t) {
      const TermId lanes[3] = {t.s, t.p, t.o};
      return std::array<TermId, 3>{lanes[c.lanes[0]], lanes[c.lanes[1]],
                                   lanes[c.lanes[2]]};
    };
    for (size_t i = 1; i < out.size(); ++i) {
      EXPECT_LE(key(out[i - 1]), key(out[i])) << "perm " << c.perm;
    }
  }
  // A (p, s) prefix on PSO narrows exactly, like any complete prefix.
  const TermId man = g->terms().Find(Term::Iri(kEx + "manufacturer"));
  ASSERT_NE(man, kNoTermId);
  const size_t width = g->EstimateInPerm(Graph::kPermPSO, kNoTermId, man,
                                         kNoTermId);
  EXPECT_EQ(width, g->CountMatch(kNoTermId, man, kNoTermId));
  std::vector<rdf::TripleId> narrowed;
  g->ForEachInPerm(Graph::kPermPSO, kNoTermId, man, kNoTermId,
                   [&](const rdf::TripleId& t) { narrowed.push_back(t); });
  EXPECT_EQ(narrowed.size(), width);
  for (size_t i = 1; i < narrowed.size(); ++i) {
    EXPECT_LE(narrowed[i - 1].s, narrowed[i].s);
  }
}

// ---- merge cursor --------------------------------------------------------

TEST(MergeCursorTest, StreamsIdenticallyOnHeapAndMappedBackends) {
  auto heap = BuildKg(23, 200);
  auto mapped = OpenMapped(*heap, "cursor");
  const TermId man = heap->terms().Find(Term::Iri(kEx + "manufacturer"));
  ASSERT_NE(man, kNoTermId);
  const size_t width = heap->CountMatch(kNoTermId, man, kNoTermId);
  ASSERT_GT(width, 0u);

  auto drain = [&](const Graph& g) {
    auto cur = g.OpenMergeCursor(Graph::kPermPOS, kNoTermId, man, kNoTermId);
    std::vector<rdf::TripleId> out;
    TermId prev = 0;
    while (!cur.at_end()) {
      EXPECT_GE(cur.key(), prev);  // merge lane (?m = object) ascends
      prev = cur.key();
      EXPECT_EQ(cur.key(), cur.triple().o);
      out.push_back(cur.triple());
      cur.Next();
    }
    // A full linear walk decodes every entry in the range and never seeks.
    EXPECT_EQ(cur.decoded(), width);
    EXPECT_EQ(cur.seeks(), 0u);
    return out;
  };
  const std::vector<rdf::TripleId> h = drain(*heap);
  const std::vector<rdf::TripleId> m = drain(*mapped);
  ASSERT_EQ(h.size(), width);
  ASSERT_EQ(h.size(), m.size());
  for (size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i], m[i]) << "entry " << i;

  // SeekGE lands both backends on the same entries while decoding far less
  // than the full range (mapped: whole blocks are skipped undecoded).
  std::vector<TermId> keys;
  for (const rdf::TripleId& t : h) {
    if (keys.empty() || keys.back() != t.o) keys.push_back(t.o);
  }
  ASSERT_GE(keys.size(), 4u);
  const TermId probes[3] = {keys[1], keys[keys.size() / 2], keys.back()};
  auto seek = [&](const Graph& g) {
    auto cur = g.OpenMergeCursor(Graph::kPermPOS, kNoTermId, man, kNoTermId);
    std::vector<rdf::TripleId> hits;
    for (TermId v : probes) {
      cur.SeekGE(v);
      EXPECT_FALSE(cur.at_end());
      if (cur.at_end()) break;
      EXPECT_EQ(cur.key(), v);
      hits.push_back(cur.triple());
    }
    EXPECT_EQ(cur.seeks(), 3u);
    EXPECT_LT(cur.decoded(), width);
    return hits;
  };
  EXPECT_EQ(seek(*heap), seek(*mapped));
}

// ---- DP order search and plan annotation ---------------------------------

TEST(PlannerDpTest, ReturnsDeterministicValidOrderAndIotaAboveCutoff) {
  auto g = BuildKg(7, 300);
  sparql::VarTable vars;
  std::vector<sparql::CompiledPattern> patterns = {
      Pat(*g, &vars, "?l", "manufacturer", "?m"),
      Pat(*g, &vars, "?m", "origin", "?c"),
      Pat(*g, &vars, "?c", "GDPPerCapita", "?gdp"),
      Pat(*g, &vars, "?l", "price", "?p"),
  };
  const std::vector<int> order = sparql::PlanBgpOrderDp(*g, patterns);
  ASSERT_EQ(order.size(), patterns.size());
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<int>(i));  // a permutation
  }
  EXPECT_EQ(sparql::PlanBgpOrderDp(*g, patterns), order);  // deterministic

  // Above the subset-DP cutoff the caller's greedy fallback plans instead;
  // the DP itself returns source order untouched.
  sparql::VarTable vars2;
  std::vector<sparql::CompiledPattern> big;
  while (big.size() <= sparql::kMaxDpPatterns) {
    big.push_back(Pat(*g, &vars2, "?l", "manufacturer", "?m"));
  }
  const std::vector<int> fallback = sparql::PlanBgpOrderDp(*g, big);
  for (size_t i = 0; i < fallback.size(); ++i) {
    EXPECT_EQ(fallback[i], static_cast<int>(i));
  }
}

TEST(PlannerDpTest, AnnotatesInterestingOrderAndMergeSteps) {
  auto g = BuildKg(7, 300);
  sparql::VarTable vars;
  // ?l slot 0, ?m slot 1, ?c slot 2, ?gdp slot 3.
  std::vector<sparql::CompiledPattern> ordered = {
      Pat(*g, &vars, "?l", "manufacturer", "?m"),
      Pat(*g, &vars, "?m", "origin", "?c"),
      Pat(*g, &vars, "?c", "GDPPerCapita", "?gdp"),
  };
  const sparql::BgpPlan plan = sparql::AnnotateBgpPlan(*g, ordered);
  ASSERT_EQ(plan.steps.size(), 3u);
  // ?m is the seed's free lane feeding the downstream join: the scan comes
  // out sorted on it (POS) and step 1 streams origin's (p, s) = PSO cursor.
  EXPECT_EQ(plan.head_slot, 1);
  EXPECT_EQ(plan.steps[0].strategy, 'S');
  EXPECT_EQ(plan.steps[0].perm, Graph::kPermPOS);
  EXPECT_EQ(plan.steps[1].strategy, 'M');
  EXPECT_EQ(plan.steps[1].perm, Graph::kPermPSO);
  // Step 2 joins on ?c, not the interesting order: adaptive.
  EXPECT_EQ(plan.steps[2].strategy, 'A');
  EXPECT_GT(plan.est_cost, 0.0);

  const std::string json = plan.ToJson({0, 1, 2});
  EXPECT_NE(json.find("\"dp\":false"), std::string::npos);
  EXPECT_NE(json.find("\"head_slot\":1"), std::string::npos);
  EXPECT_NE(json.find("\"strategy\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"perm\":\"PSO\""), std::string::npos);
}

// ---- differential equivalence --------------------------------------------

TEST(PlannerV2Test, MergeIsByteIdenticalAcrossSeedsThreadsAndBackends) {
  const char* const kQueries[] = {
      "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . }",
      "SELECT ?l ?m ?c ?g WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . "
      "?c ex:GDPPerCapita ?g . }",
      "SELECT ?l ?p ?c WHERE { ?l ex:manufacturer ?m . ?l ex:price ?p . "
      "?m ex:origin ?c . }",
      "SELECT ?l ?h ?c WHERE { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm . "
      "?hm ex:origin ?c . }",
      // FILTERs run between pipeline steps once their variables are bound.
      "SELECT ?l ?p ?d ?m WHERE { ?l ex:price ?p . ?l ex:releaseDate ?d . "
      "?l ex:manufacturer ?m . FILTER(?p >= 800 && ?p < 1800) }",
      "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . "
      "?l ex:price ?p . FILTER(?p > 1000 || ?m = ?c) FILTER(YEAR(?d) > 0 "
      "|| !BOUND(?d)) FILTER(?c != ?l) }",
  };
  for (unsigned seed : {7u, 19u, 42u}) {
    auto heap = BuildKg(seed, 400);
    auto mapped = OpenMapped(*heap, "diff_" + std::to_string(seed));
    for (const char* body : kQueries) {
      const std::string q = std::string(kPfx) + body;
      // Reference: serial NLJ under the same (DP) order on the heap, with
      // every FILTER run after the join.
      RunOpts ref_opts;
      ref_opts.strategy = sparql::JoinStrategy::kNestedLoop;
      ref_opts.use_dp = true;
      ref_opts.push_filters = false;
      const std::string reference = RunTsv(heap.get(), q, ref_opts);
      // Same order, both strategies, both thread counts, both backends:
      // byte-identical (NLJ demotes merge steps in place).
      for (Graph* g : {heap.get(), mapped.get()}) {
        for (int threads : {1, 4}) {
          for (sparql::JoinStrategy strategy :
               {sparql::JoinStrategy::kNestedLoop,
                sparql::JoinStrategy::kAdaptive}) {
            RunOpts o;
            o.threads = threads;
            o.strategy = strategy;
            o.use_dp = true;
            EXPECT_EQ(RunTsv(g, q, o), reference)
                << "seed=" << seed << " threads=" << threads
                << " strategy=" << static_cast<int>(strategy)
                << " mapped=" << (g == mapped.get()) << "\n"
                << q;
          }
        }
      }
      // The DP order may differ from the v1 greedy one, so against the v1
      // engine only the result *set* is promised.
      RunOpts v1;
      EXPECT_EQ(SortedLines(RunTsv(heap.get(), q, v1)),
                SortedLines(reference))
          << "seed=" << seed << "\n" << q;
    }
  }
}

// A FILTER whose variables the first steps bind runs before the later
// steps, which then extend only the rows it keeps; without filter pushdown
// it runs after the join. Same answer either way.
TEST(PlannerV2Test, FiltersRunBetweenPipelineSteps) {
  auto g = BuildKg(7, 600);
  const std::string q =
      std::string(kPfx) +
      "SELECT ?l ?p ?d ?m WHERE { ?l ex:price ?p . ?l ex:releaseDate ?d . "
      "?l ex:manufacturer ?m . FILTER(?p >= 800 && ?p < 1800) }";
  RunOpts pushed;
  pushed.use_dp = true;
  RunOpts after = pushed;
  after.push_filters = false;
  sparql::ExecStats pushed_stats, after_stats;
  const std::string want = RunTsv(g.get(), q, after, &after_stats);
  EXPECT_EQ(RunTsv(g.get(), q, pushed, &pushed_stats), want);
  ASSERT_EQ(pushed_stats.rows_scanned.size(), 3u);
  ASSERT_EQ(after_stats.rows_scanned.size(), 3u);
  EXPECT_EQ(pushed_stats.rows_scanned[0], after_stats.rows_scanned[0]);
  EXPECT_LT(pushed_stats.rows_scanned[1] + pushed_stats.rows_scanned[2],
            after_stats.rows_scanned[1] + after_stats.rows_scanned[2]);
  EXPECT_GT(pushed_stats.filter_ms, 0.0);
}

TEST(PlannerV2Test, MergeStepsEngageAndSurfaceStats) {
  auto g = BuildKg(7, 600);
  const std::string q =
      std::string(kPfx) +
      "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . }";
  RunOpts o;
  o.use_dp = true;
  sparql::ExecStats stats;
  RunTsv(g.get(), q, o, &stats);
  ASSERT_EQ(stats.join_strategy.size(), 2u);
  EXPECT_EQ(stats.join_strategy[0], 'S');
  EXPECT_EQ(stats.join_strategy[1], 'M');
  EXPECT_EQ(stats.merge_joins, 1u);
  EXPECT_GT(stats.sieve_keys, 0u);
  EXPECT_GT(stats.sieve_seeks, 0u);
  EXPECT_EQ(stats.dp_plans, 1u);
  ASSERT_EQ(stats.plan_shapes.size(), 1u);
  EXPECT_NE(stats.plan_shapes[0].find("\"dp\":true"), std::string::npos);
  EXPECT_NE(stats.Summary().find("merge_joins=1"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"merge_joins\":1"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"plans\":["), std::string::npos);
}

// ---- sideways information passing ----------------------------------------

TEST(PlannerV2Test, MergeSeeksPastNonCandidateKeys) {
  // A sparse sieve over a wide, interleaved cursor range: 1000 `data`
  // subjects, of which every 100th also carries a `link` edge. Seeding on
  // `link` sorts the intermediate on ?s; the merge over `data`'s (p, s)
  // cursor then has 990 non-candidate entries to seek past. The order is
  // pinned by replay so the test does not depend on the DP's choice.
  Graph g;
  const Term link = Term::Iri("urn:link");
  const Term data = Term::Iri("urn:data");
  for (int i = 0; i < 1000; ++i) {
    const Term s = Term::Iri("urn:s" + std::to_string(i));
    g.Add(s, data, Term::Iri("urn:v" + std::to_string(i)));
    if (i % 100 == 0) g.Add(s, link, Term::Iri("urn:t"));
  }
  const std::vector<int> link_first = {0, 1};
  auto run = [&](sparql::JoinStrategy strategy, sparql::ExecStats* stats) {
    sparql::VarTable vars;
    std::vector<sparql::CompiledPattern> patterns = {
        sparql::CompileTriple({sparql::NodePattern::Var("s"),
                               sparql::NodePattern::Const(link),
                               sparql::NodePattern::Var("t")},
                              &vars, g),
        sparql::CompileTriple({sparql::NodePattern::Var("s"),
                               sparql::NodePattern::Const(data),
                               sparql::NodePattern::Var("v")},
                              &vars, g),
    };
    std::vector<sparql::Binding> rows = {
        sparql::Binding(vars.size(), kNoTermId)};
    sparql::JoinOptions jopts;
    jopts.strategy = strategy;
    jopts.use_dp = true;
    jopts.replay_order = &link_first;
    jopts.stats = stats;
    Status st = sparql::JoinBgp(g, patterns, vars.size(), /*reorder=*/false,
                                jopts, &rows);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return rows;
  };
  sparql::ExecStats merge, nlj;
  const std::vector<sparql::Binding> a =
      run(sparql::JoinStrategy::kAdaptive, &merge);
  const std::vector<sparql::Binding> b =
      run(sparql::JoinStrategy::kNestedLoop, &nlj);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "row " << i;
  }
  ASSERT_EQ(merge.join_strategy, (std::vector<char>{'S', 'M'}));
  // The whole point of the sieve: the cursor decodes a small fraction of
  // the 1000-entry range.
  EXPECT_GT(merge.sieve_seeks, 0u);
  EXPECT_LT(merge.merge_rows_decoded, 100u);
}

// ---- deterministic cancellation ------------------------------------------

TEST(PlannerV2Test, CancelTripsInsideSieveBuildDeterministically) {
  auto g = BuildKg(7, 1000);  // manufacturer range comfortably > 512 rows
  g->Freeze();
  sparql::VarTable vars;
  std::vector<sparql::CompiledPattern> patterns = {
      Pat(*g, &vars, "?l", "manufacturer", "?m"),
      Pat(*g, &vars, "?m", "origin", "?c"),
  };
  // Counted checks: seed entry + exit ("bgp-join"), then the sieve build's
  // 512-row check over the ~1250-row sorted intermediate. Cancelling on the
  // 3rd check therefore lands inside BuildSieve, every time. The replayed
  // order keeps the DP from seeding on the small side instead.
  QueryContext ctx;
  ctx.CancelAfterChecks(3);
  const std::vector<int> source_order = {0, 1};
  sparql::JoinOptions jopts;
  jopts.use_dp = true;
  jopts.replay_order = &source_order;
  jopts.ctx = &ctx;
  std::vector<sparql::Binding> rows = {
      sparql::Binding(vars.size(), kNoTermId)};
  Status st = sparql::JoinBgp(*g, patterns, vars.size(), /*reorder=*/false,
                              jopts, &rows);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_STREQ(ctx.trip_stage(), "sieve-build");
}

TEST(PlannerV2Test, CancelTripsInsideMergeAdvanceDeterministically) {
  auto g = BuildKg(7, 1000);
  g->Freeze();
  const TermId man = g->terms().Find(Term::Iri(kEx + "manufacturer"));
  ASSERT_NE(man, kNoTermId);
  const size_t seed_rows = g->CountMatch(kNoTermId, man, kNoTermId);
  ASSERT_GT(seed_rows, 512u);
  sparql::VarTable vars;
  std::vector<sparql::CompiledPattern> patterns = {
      Pat(*g, &vars, "?l", "manufacturer", "?m"),
      Pat(*g, &vars, "?l", "price", "?p"),
  };
  // Every laptop has one price, so the merge advances through ~1000 key
  // group entries of the price cursor, checking every 512 advances. Counted
  // checks before that: seed entry + exit, floor(seed_rows / 512)
  // sieve-build checks, the merge step's "bgp-join" entry — so arming one
  // past those trips the first merge-advance check, deterministically.
  QueryContext ctx;
  ctx.CancelAfterChecks(2 + static_cast<int64_t>(seed_rows / 512) + 2);
  const std::vector<int> source_order = {0, 1};
  sparql::ExecStats stats;
  sparql::JoinOptions jopts;
  jopts.use_dp = true;
  jopts.replay_order = &source_order;
  jopts.ctx = &ctx;
  jopts.stats = &stats;
  std::vector<sparql::Binding> rows = {
      sparql::Binding(vars.size(), kNoTermId)};
  Status st = sparql::JoinBgp(*g, patterns, vars.size(), /*reorder=*/false,
                              jopts, &rows);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_STREQ(ctx.trip_stage(), "merge-advance");
  // The partial merge step's stats were recorded before unwinding.
  ASSERT_EQ(stats.join_strategy.size(), 2u);
  EXPECT_EQ(stats.join_strategy[0], 'S');
  EXPECT_EQ(stats.join_strategy[1], 'M');
  EXPECT_GT(stats.rows_scanned[1], 0u);
}

// ---- plan capture / replay -----------------------------------------------

TEST(PlannerV2Test, CapturedOrderReplayReproducesPlanBitForBit) {
  auto g = BuildKg(7, 300);
  auto run = [&](const std::vector<int>* replay, std::vector<int>* capture,
                 sparql::ExecStats* stats) {
    sparql::VarTable vars;
    std::vector<sparql::CompiledPattern> patterns = {
        Pat(*g, &vars, "?l", "manufacturer", "?m"),
        Pat(*g, &vars, "?m", "origin", "?c"),
        Pat(*g, &vars, "?c", "GDPPerCapita", "?gdp"),
    };
    std::vector<sparql::Binding> rows = {
        sparql::Binding(vars.size(), kNoTermId)};
    sparql::JoinOptions jopts;
    jopts.use_dp = true;
    jopts.stats = stats;
    jopts.replay_order = replay;
    jopts.capture_order = capture;
    Status st = sparql::JoinBgp(*g, patterns, vars.size(), /*reorder=*/true,
                                jopts, &rows);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return rows;
  };
  std::vector<int> captured;
  sparql::ExecStats first_stats;
  const std::vector<sparql::Binding> first =
      run(nullptr, &captured, &first_stats);
  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(first_stats.dp_plans, 1u);
  ASSERT_EQ(first_stats.plan_shapes.size(), 1u);

  sparql::ExecStats replayed_stats;
  const std::vector<sparql::Binding> replayed =
      run(&captured, nullptr, &replayed_stats);
  ASSERT_EQ(replayed.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], replayed[i]) << "row " << i;
  }
  // Annotation is a pure function of the order: the replayed run rebuilds
  // the identical explainable plan, strategies and permutations included.
  ASSERT_EQ(replayed_stats.plan_shapes.size(), 1u);
  EXPECT_EQ(replayed_stats.plan_shapes[0], first_stats.plan_shapes[0]);
  EXPECT_EQ(replayed_stats.join_order, first_stats.join_order);
  EXPECT_EQ(replayed_stats.join_strategy, first_stats.join_strategy);
}

// ---- endpoint cache slots ------------------------------------------------

TEST(PlannerV2Test, EndpointDpRunsGetTheirOwnPlanAndAnswerSlots) {
  // The `#planner-cfg:dp` fingerprint suffix is the only thing that keeps a
  // DP plan (and its row order) from being served to a greedy run: toggling
  // use_dp must miss both caches once, then hit its own entries.
  rdf::MvccGraph store(BuildKg(7, 600));
  const std::string q =
      std::string(kPfx) +
      "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . }";
  endpoint::SimulatedEndpoint ep(&store, endpoint::LatencyProfile::Local(),
                                 /*enable_cache=*/true);
  auto greedy = ep.Query(q);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(greedy.value().status.ok());
  EXPECT_EQ(greedy.value().exec_stats.dp_plans, 0u);

  ep.set_use_dp(true);
  auto dp = ep.Query(q);
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(dp.value().status.ok());
  EXPECT_FALSE(dp.value().cache_hit);
  EXPECT_FALSE(dp.value().plan_cache_hit);
  EXPECT_EQ(dp.value().exec_stats.dp_plans, 1u);
  EXPECT_EQ(ep.plan_cache_stats().entries, 2u);
  EXPECT_EQ(ep.answer_cache_stats().entries, 2u);
  EXPECT_EQ(SortedLines(dp.value().table.ToTsv()),
            SortedLines(greedy.value().table.ToTsv()));

  auto dp_again = ep.Query(q);
  ASSERT_TRUE(dp_again.ok());
  EXPECT_TRUE(dp_again.value().cache_hit);
  EXPECT_EQ(dp_again.value().table.ToTsv(), dp.value().table.ToTsv());

  ep.set_use_dp(false);
  auto greedy_again = ep.Query(q);
  ASSERT_TRUE(greedy_again.ok());
  EXPECT_TRUE(greedy_again.value().cache_hit);
  EXPECT_EQ(greedy_again.value().table.ToTsv(), greedy.value().table.ToTsv());
}

}  // namespace
}  // namespace rdfa
