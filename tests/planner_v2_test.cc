// Coverage for planner v2: sort-aware ChoosePerm over the three
// permutations and the seed order it scans, the DP join-order search, plan
// annotation and EXPLAIN, and the DP-seeded run — byte-identity
// against the NLJ oracle across seeds, thread counts and backends, the
// seed scan on both backends, deterministic cancellation at the seed step's
// exit, probe reuse over sorted input (DP-seeded, greedy and seeded runs),
// filters between steps, and that re-planning a run reproduces its plan.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <numeric>
#include <regex>
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
#include "solution_rows.h"

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

// ---- sort-aware ChoosePerm ------------------------------------------------

TEST(ChoosePermOrderTest, PrefersRequestedSortLaneAmongLongestPrefixes) {
  // No bound lane: the preference picks the permutation sorted on it.
  EXPECT_EQ(Graph::ChoosePerm(false, false, false, 0), Graph::kPermSPO);
  EXPECT_EQ(Graph::ChoosePerm(false, false, false, 1), Graph::kPermPOS);
  EXPECT_EQ(Graph::ChoosePerm(false, false, false, 2), Graph::kPermOSP);
  // p bound, sort on o: POS's (p, o) prefix delivers it.
  EXPECT_EQ(Graph::ChoosePerm(false, true, false, 2), Graph::kPermPOS);
  // p bound, sort on s: only SPO puts s first; it filters p inline.
  EXPECT_EQ(Graph::ChoosePerm(false, true, false, 0), Graph::kPermSPO);
  // s bound, sort on o: only OSP puts o before p; it filters s inline.
  EXPECT_EQ(Graph::ChoosePerm(true, false, false, 2), Graph::kPermOSP);
  // p+o bound, sort on s: POS's (p, o) prefix leaves s last.
  EXPECT_EQ(Graph::ChoosePerm(false, true, true, 0), Graph::kPermPOS);
  // s+o bound, sort on p: OSP's (o, s, p) prefix already delivers it.
  EXPECT_EQ(Graph::ChoosePerm(true, false, true, 1), Graph::kPermOSP);
  // No (or a bound) preference is the longest-prefix choice.
  EXPECT_EQ(Graph::ChoosePerm(false, false, false, -1), Graph::kPermSPO);
  EXPECT_EQ(Graph::ChoosePerm(true, false, true, -1), Graph::kPermOSP);
  EXPECT_EQ(Graph::ChoosePerm(true, false, true), Graph::kPermOSP);
  EXPECT_EQ(Graph::ChoosePerm(true, true, true, 2), Graph::kPermSPO);
}

// The seed-order oracle. The six lane orders (SPO, POS, OSP and their
// transpositions PSO, OPS, SOP) hold a sort order for every bound-lane
// subset and preferred lane: the longest bound prefix, then the one whose
// first free lane is the preferred one, then table order. Scanning
// ChoosePerm's permutation must give exactly the rows of Match() sorted in
// that lane order, for every subset and preference, on both backends.
TEST(ChoosePermOrderTest, ScansInTheSixPermutationSeedOrder) {
  constexpr int kSix[6][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1},
                              {1, 0, 2}, {0, 2, 1}, {2, 1, 0}};
  auto six_perm_lanes = [&](const bool bound[3], int prefer) {
    int best = 0, best_prefix = -1, best_pref = -1;
    for (int perm = 0; perm < 6; ++perm) {
      int prefix = 0;
      while (prefix < 3 && bound[kSix[perm][prefix]]) ++prefix;
      const int pref = prefix < 3 && kSix[perm][prefix] == prefer ? 1 : 0;
      if (prefix > best_prefix ||
          (prefix == best_prefix && pref > best_pref)) {
        best = perm;
        best_prefix = prefix;
        best_pref = pref;
      }
    }
    return kSix[best];
  };
  auto heap = BuildKg(11, 60);
  auto mapped = OpenMapped(*heap, "seed-order");
  const TermId man = heap->terms().Find(Term::Iri(kEx + "manufacturer"));
  ASSERT_NE(man, kNoTermId);
  // Lane values to bind: a manufacturer triple and the graph's first one.
  const rdf::TripleId samples[] = {
      heap->Match(kNoTermId, man, kNoTermId).front(),
      heap->triples().front()};
  size_t checked = 0;
  for (const Graph* g : {heap.get(), mapped.get()}) {
    for (const rdf::TripleId& sample : samples) {
      const TermId values[3] = {sample.s, sample.p, sample.o};
      for (int mask = 0; mask < 8; ++mask) {
        const bool bound[3] = {(mask & 1) != 0, (mask & 2) != 0,
                               (mask & 4) != 0};
        TermId key[3];
        for (int lane = 0; lane < 3; ++lane) {
          key[lane] = bound[lane] ? values[lane] : kNoTermId;
        }
        for (int prefer = -1; prefer < 3; ++prefer) {
          const int* lanes = six_perm_lanes(bound, prefer);
          auto sort_key = [lanes](const rdf::TripleId& t) {
            const TermId v[3] = {t.s, t.p, t.o};
            return std::array<TermId, 3>{v[lanes[0]], v[lanes[1]],
                                         v[lanes[2]]};
          };
          std::vector<rdf::TripleId> want = g->Match(key[0], key[1], key[2]);
          std::sort(want.begin(), want.end(),
                    [&](const rdf::TripleId& a, const rdf::TripleId& b) {
                      return sort_key(a) < sort_key(b);
                    });
          const Graph::Perm perm =
              Graph::ChoosePerm(bound[0], bound[1], bound[2], prefer);
          std::vector<rdf::TripleId> got;
          g->ForEachInPerm(perm, key[0], key[1], key[2],
                           [&](const rdf::TripleId& t) { got.push_back(t); });
          ASSERT_FALSE(want.empty());
          EXPECT_EQ(got, want) << "mask " << mask << " prefer " << prefer
                               << " perm " << sparql::PermName(perm);
          if (prefer < 0) {
            // Every bound lane is in the prefix: the estimate is exact.
            EXPECT_EQ(g->EstimateInPerm(perm, key[0], key[1], key[2]),
                      want.size())
                << "mask " << mask;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 2u * 2u * 8u * 4u);
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

TEST(PlannerDpTest, AnnotatesInterestingOrderAndSeedScan) {
  auto g = BuildKg(7, 300);
  sparql::VarTable vars;
  // ?l slot 0, ?m slot 1, ?c slot 2, ?gdp slot 3.
  std::vector<sparql::CompiledPattern> ordered = {
      Pat(*g, &vars, "?l", "manufacturer", "?m"),
      Pat(*g, &vars, "?m", "origin", "?c"),
      Pat(*g, &vars, "?c", "GDPPerCapita", "?gdp"),
  };
  const sparql::BgpPlan plan =
      sparql::AnnotateBgpPlan(*g, ordered, /*seeded=*/true);
  ASSERT_EQ(plan.steps.size(), 3u);
  // ?m is the seed's free lane feeding the downstream join: the scan comes
  // out sorted on it (POS), and step 1 probes origin by ?m (SPO).
  EXPECT_EQ(plan.head_slot, 1);
  EXPECT_EQ(plan.steps[0].strategy, 'S');
  EXPECT_EQ(plan.steps[0].perm, Graph::kPermPOS);
  EXPECT_EQ(plan.steps[1].strategy, 'A');
  EXPECT_EQ(plan.steps[1].perm, Graph::kPermSPO);
  EXPECT_EQ(plan.steps[2].strategy, 'A');
  EXPECT_GT(plan.est_cost, 0.0);

  const std::string json = plan.ToJson({0, 1, 2});
  EXPECT_NE(json.find("\"dp\":false"), std::string::npos);
  EXPECT_NE(json.find("\"head_slot\":1"), std::string::npos);
  EXPECT_NE(json.find("\"strategy\":\"S\",\"perm\":\"POS\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"strategy\":\"M\""), std::string::npos);

  // Both later steps probe on ?l: the seed scans manufacturer sorted on ?l,
  // which SPO provides, filtering the predicate inline.
  sparql::VarTable vars2;
  const std::vector<sparql::CompiledPattern> star = {
      Pat(*g, &vars2, "?l", "manufacturer", "?m"),
      Pat(*g, &vars2, "?l", "price", "?p"),
      Pat(*g, &vars2, "?l", "releaseDate", "?d"),
  };
  const sparql::BgpPlan seeded =
      sparql::AnnotateBgpPlan(*g, star, /*seeded=*/true);
  EXPECT_EQ(seeded.head_slot, 0);
  EXPECT_EQ(seeded.steps[0].strategy, 'S');
  EXPECT_EQ(seeded.steps[0].perm, Graph::kPermSPO);
  // An unseeded run probes its first pattern's constants in the 3-arg
  // ChoosePerm permutation and keeps no interesting order; the estimates
  // are the seeded plan's.
  const sparql::BgpPlan probed =
      sparql::AnnotateBgpPlan(*g, star, /*seeded=*/false);
  EXPECT_EQ(probed.head_slot, -1);
  EXPECT_EQ(probed.steps[0].strategy, 'A');
  EXPECT_EQ(probed.steps[0].perm, Graph::kPermPOS);
  EXPECT_EQ(probed.est_cost, seeded.est_cost);
  for (const sparql::PlannedStep& step : probed.steps) {
    EXPECT_EQ(step.strategy, 'A');
  }
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
      // byte-identical.
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

TEST(PlannerV2Test, SeededRunSurfacesPlanAndStats) {
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
  EXPECT_EQ(stats.dp_plans, 1u);
  ASSERT_EQ(stats.plan_shapes.size(), 1u);
  EXPECT_NE(stats.plan_shapes[0].find("\"dp\":true"), std::string::npos);
  EXPECT_NE(stats.Summary().find("dp_plans=1"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"plans\":["), std::string::npos);
}

// ---- EXPLAIN ---------------------------------------------------------------

// One BGP run as "dp=<0|1> head=<slot> first=<S|A> order=<sources>".
std::string DescribeRun(bool dp, int head_slot, char first,
                        const std::vector<int>& order) {
  std::string out = "dp=" + std::to_string(dp ? 1 : 0) +
                    " head=" + std::to_string(head_slot) + " first=" + first +
                    " order=";
  for (int src : order) out += std::to_string(src) + ",";
  return out;
}

// EXPLAIN plans every top-level run as Execute() runs it: each run's dp
// flag, head slot, first step and pattern order match ExecStats. A run
// after a FILTER, a BIND or a sub-select extends rows that bind their
// slots, so Execute() orders it greedily from those slots and seeds no
// scan. Runs nested in a sub-select execute first; the top-level runs are
// the last entries of ExecStats.
TEST(PlannerV2Test, ExplainPlansEachRunAsExecuteRunsIt) {
  auto g = BuildKg(7, 600);
  struct Case {
    std::string query;
    size_t runs;           ///< top-level triple runs
    std::string last_run;  ///< DescribeRun of the last of them
  };
  const Case cases[] = {
      // The FILTER splits two runs; the second probes manufacturer by the
      // bound ?l first.
      {"SELECT ?l ?m ?c WHERE { ?l ex:price ?p . FILTER(?p > 100) "
       "?l ex:manufacturer ?m . ?m ex:origin ?c }",
       2, DescribeRun(false, -1, 'A', {0, 1})},
      // The sub-select binds ?m, so the run probes manufacturer by ?m.
      {"SELECT ?l ?p WHERE { { SELECT ?m WHERE { ?m ex:origin ?c } } "
       "?l ex:manufacturer ?m . ?l ex:price ?p }",
       1, DescribeRun(false, -1, 'A', {0, 1})},
      // A SELECT * sub-select binds its WHERE's variables, ?m among them.
      {"SELECT ?l ?p WHERE { { SELECT * WHERE { ?m ex:origin ?c } } "
       "?l ex:manufacturer ?m . ?l ex:price ?p }",
       1, DescribeRun(false, -1, 'A', {0, 1})},
  };
  const std::regex head_re(R"re("dp":(true|false),"head_slot":(-?\d+))re");
  const std::regex step_re(R"re("pattern":(\d+),"strategy":"(.)")re");
  for (const Case& c : cases) {
    auto parsed = sparql::ParseQuery(std::string(kPfx) + c.query);
    ASSERT_TRUE(parsed.ok()) << c.query;
    for (bool use_dp : {false, true}) {
      sparql::Executor exec(g.get());
      exec.set_use_dp(use_dp);
      const std::string plan = exec.ExplainJson(parsed.value());
      std::vector<std::string> planned;
      std::vector<size_t> run_sizes;
      for (std::sregex_iterator it(plan.begin(), plan.end(), head_re), end;
           it != end; ++it) {
        const size_t from = static_cast<size_t>(it->position() + it->length());
        const size_t to = plan.find("\"dp\":", from);
        const std::string steps =
            plan.substr(from, to == std::string::npos ? to : to - from);
        std::vector<int> order;
        char first = '?';
        for (std::sregex_iterator st(steps.begin(), steps.end(), step_re);
             st != std::sregex_iterator(); ++st) {
          if (order.empty()) first = (*st)[2].str()[0];
          order.push_back(std::stoi((*st)[1].str()));
        }
        planned.push_back(DescribeRun((*it)[1] == "true",
                                      std::stoi((*it)[2].str()), first, order));
        run_sizes.push_back(order.size());
      }
      ASSERT_EQ(planned.size(), c.runs) << plan;

      auto res = exec.Execute(parsed.value());
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ASSERT_GT(res.value().num_rows(), 0u);
      const sparql::ExecStats& stats = exec.stats();
      const size_t top_steps =
          std::accumulate(run_sizes.begin(), run_sizes.end(), size_t{0});
      ASSERT_LE(top_steps, stats.join_order.size()) << stats.ToJson();
      size_t at = stats.join_order.size() - top_steps;
      // Each seeded run records one plan shape, its first step an 'S'.
      size_t shape = static_cast<size_t>(
          std::count(stats.join_strategy.begin(),
                     stats.join_strategy.begin() + at, 'S'));
      std::vector<std::string> ran;
      for (size_t n : run_sizes) {
        const std::vector<int> order(stats.join_order.begin() + at,
                                     stats.join_order.begin() + at + n);
        // Only a seeded run records a plan shape; any other is neither
        // DP-ordered nor sorted.
        bool dp = false;
        int head_slot = -1;
        const bool seeded = stats.join_strategy[at] == 'S';
        if (seeded) {
          ASSERT_LT(shape, stats.plan_shapes.size());
          std::smatch m;
          ASSERT_TRUE(
              std::regex_search(stats.plan_shapes[shape++], m, head_re));
          dp = m[1] == "true";
          head_slot = std::stoi(m[2].str());
        }
        ran.push_back(DescribeRun(dp, head_slot, seeded ? 'S' : 'A', order));
        at += n;
      }
      EXPECT_EQ(at, stats.join_order.size());
      EXPECT_EQ(shape, stats.plan_shapes.size());
      EXPECT_EQ(planned, ran) << "use_dp=" << use_dp << "\n" << plan;
      EXPECT_EQ(planned.back(), c.last_run) << c.query;
    }
  }
}

// ---- seed scan -------------------------------------------------------------

// The seed step scans the first pattern's range in the permutation the plan
// picks, a filtered one included, so the intermediate comes out sorted on
// the head variable and the later (order-preserving) steps keep it so. Each
// case lists its patterns in the order DP picks, so the seed is pattern 0.
// Both backends stream the same rows, and the seeded run answers the same
// set as an unseeded one.
TEST(PlannerV2Test, SeedScanStreamsIdenticallyOnHeapAndMappedBackends) {
  auto heap = BuildKg(23, 200);
  auto mapped = OpenMapped(*heap, "seed");
  struct Case {
    std::vector<std::array<std::string, 3>> patterns;
    Graph::Perm perm;  // the seed permutation AnnotateBgpPlan picks
    int head_slot;
  };
  const Case cases[] = {
      // Both later steps probe ?l: SPO sorts on it, filtering the predicate.
      {{{"?l", "price", "?p"},
        {"?l", "manufacturer", "?m"},
        {"?l", "releaseDate", "?d"}},
       Graph::kPermSPO,
       0},
      // Step 1 probes ?m, the seed's object: the primary POS.
      {{{"?l", "manufacturer", "?m"},
        {"?m", "origin", "?c"},
        {"?c", "GDPPerCapita", "?gdp"}},
       Graph::kPermPOS,
       1},
  };
  for (const Case& c : cases) {
    auto run = [&](const Graph& g, bool use_dp, sparql::ExecStats* stats) {
      sparql::VarTable vars;
      std::vector<sparql::CompiledPattern> patterns;
      for (const auto& t : c.patterns) {
        patterns.push_back(Pat(g, &vars, t[0], t[1], t[2]));
      }
      if (use_dp) {
        const sparql::BgpPlan plan =
            sparql::AnnotateBgpPlan(g, patterns, /*seeded=*/true);
        EXPECT_EQ(plan.steps[0].perm, c.perm);
        EXPECT_EQ(plan.head_slot, c.head_slot);
      }
      sparql::SolutionTable rows = test::Table(vars.size(), {{}});
      sparql::JoinOptions jopts;
      jopts.use_dp = use_dp;
      jopts.stats = stats;
      Status st = sparql::JoinBgp(g, patterns, vars.size(), /*reorder=*/false,
                                  jopts, &rows);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return test::Rows(rows);
    };
    const TermId seed_p =
        heap->terms().Find(Term::Iri(kEx + c.patterns[0][1]));
    ASSERT_NE(seed_p, kNoTermId);
    const size_t seed_width = heap->CountMatch(kNoTermId, seed_p, kNoTermId);

    sparql::ExecStats heap_stats, mapped_stats;
    const test::RowList h = run(*heap, true, &heap_stats);
    const test::RowList m = run(*mapped, true, &mapped_stats);
    ASSERT_GT(h.size(), 0u);
    ASSERT_EQ(h.size(), m.size()) << "perm " << c.perm;
    for (size_t i = 0; i < h.size(); ++i) {
      EXPECT_EQ(h[i], m[i]) << "perm " << c.perm << " row " << i;
    }
    for (const sparql::ExecStats* stats : {&heap_stats, &mapped_stats}) {
      EXPECT_EQ(stats->join_order, (std::vector<int>{0, 1, 2}))
          << "perm " << c.perm;
      ASSERT_FALSE(stats->join_strategy.empty());
      EXPECT_EQ(stats->join_strategy[0], 'S');
      ASSERT_FALSE(stats->rows_scanned.empty());
      EXPECT_EQ(stats->rows_scanned[0], seed_width) << "perm " << c.perm;
    }
    for (size_t i = 1; i < h.size(); ++i) {
      EXPECT_LE(h[i - 1][c.head_slot], h[i][c.head_slot])
          << "perm " << c.perm << " row " << i;
    }

    test::RowList want = run(*heap, false, nullptr);
    test::RowList got = h;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "perm " << c.perm;
  }
}

// A seeded run's counted checks are each step's "bgp-join" entry and exit
// (no hash build here). Cancelling on the 2nd lands on the seed step's exit:
// the seed's stats are recorded before unwinding, and its output never
// reaches the next step.
TEST(PlannerV2Test, CancelAtSeedExitKeepsItsStatsAndDropsItsRows) {
  auto g = BuildKg(7, 300);
  g->Freeze();
  const TermId man = g->terms().Find(Term::Iri(kEx + "manufacturer"));
  ASSERT_NE(man, kNoTermId);
  auto run = [&](QueryContext* ctx, sparql::ExecStats* stats,
                 sparql::SolutionTable* rows) {
    sparql::VarTable vars;
    std::vector<sparql::CompiledPattern> patterns = {
        Pat(*g, &vars, "?l", "manufacturer", "?m"),
        Pat(*g, &vars, "?m", "origin", "?c"),
    };
    *rows = test::Table(vars.size(), {{}});
    sparql::JoinOptions jopts;
    jopts.strategy = sparql::JoinStrategy::kNestedLoop;  // no hash build
    jopts.use_dp = true;
    jopts.ctx = ctx;
    jopts.stats = stats;
    return sparql::JoinBgp(*g, patterns, vars.size(), /*reorder=*/false,
                           jopts, rows);
  };

  QueryContext probe;
  sparql::ExecStats probe_stats;
  sparql::SolutionTable full;
  ASSERT_TRUE(run(&probe, &probe_stats, &full).ok());
  ASSERT_EQ(probe_stats.join_order, (std::vector<int>{0, 1}));
  ASSERT_EQ(probe_stats.join_strategy, (std::vector<char>{'S', 'N'}));
  EXPECT_EQ(probe.checks_performed(), 4);
  ASSERT_GT(full.size(), 0u);

  QueryContext ctx;
  ctx.CancelAfterChecks(2);
  sparql::ExecStats stats;
  sparql::SolutionTable rows;
  Status st = run(&ctx, &stats, &rows);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_STREQ(ctx.trip_stage(), "bgp-join");
  EXPECT_EQ(ctx.checks_performed(), 2);
  ASSERT_EQ(stats.join_strategy, (std::vector<char>{'S'}));
  EXPECT_EQ(stats.rows_scanned[0],
            g->CountMatch(kNoTermId, man, kNoTermId));
  ASSERT_EQ(rows.size(), 1u);
  for (TermId v : rows.row(0)) EXPECT_EQ(v, kNoTermId);
}

// ---- probe reuse over the sorted seed ------------------------------------

// bench_ablation's Q4 shape: laptops share drives (about four each), so a
// seed sorted on ?h hands the drive-manufacturer step runs of equal probe
// keys. The adaptive NLJ step probes each key once and replays its matches
// for the rest of the run; the kNestedLoop oracle probes every row. Same
// bytes, strictly fewer index rows enumerated.
TEST(PlannerV2Test, NljStepReusesRepeatedProbeKeys) {
  const std::string q =
      std::string(kPfx) +
      "SELECT ?l ?h ?c WHERE { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm . "
      "?hm ex:origin ?c . }";
  auto heap = BuildKg(7, 800);
  auto mapped = OpenMapped(*heap, "reuse");
  for (Graph* g : {heap.get(), mapped.get()}) {
    for (int threads : {1, 4}) {
      RunOpts oracle;
      oracle.threads = threads;
      oracle.strategy = sparql::JoinStrategy::kNestedLoop;
      oracle.use_dp = true;
      RunOpts adaptive = oracle;
      adaptive.strategy = sparql::JoinStrategy::kAdaptive;
      sparql::ExecStats want_stats, got_stats;
      const std::string want = RunTsv(g, q, oracle, &want_stats);
      ASSERT_GT(want.size(), 1000u);
      EXPECT_EQ(RunTsv(g, q, adaptive, &got_stats), want)
          << "threads=" << threads << " mapped=" << (g == mapped.get());
      // The seed sorts on ?h, so the drive-manufacturer step (source
      // pattern 1) follows it and runs as an NLJ over the sorted rows.
      ASSERT_EQ(got_stats.join_order, want_stats.join_order);
      ASSERT_EQ(got_stats.join_order.size(), 3u);
      EXPECT_EQ(got_stats.join_order[0], 0);
      EXPECT_EQ(got_stats.join_order[1], 1);
      EXPECT_EQ(got_stats.join_strategy[1], 'N');
      EXPECT_LT(got_stats.rows_scanned[1], want_stats.rows_scanned[1])
          << "threads=" << threads << " mapped=" << (g == mapped.get());
    }
  }
}

// Probe reuse is not tied to the DP seed: a greedy run's first step over
// `?l ex:hardDrive ?h` enumerates POS, sorted on ?h, and the triples after
// a FILTER run as a seeded run over those rows. In both, the adaptive NLJ
// step gives the kNestedLoop oracle's bytes while enumerating fewer index
// rows.
TEST(PlannerV2Test, NljReuseServesGreedyAndSeededRuns) {
  const char* const kQueries[] = {
      "SELECT ?l ?h ?hm WHERE { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm . }",
      "SELECT ?l ?h ?hm WHERE { ?l ex:hardDrive ?h . FILTER(isIRI(?h)) "
      "?h ex:manufacturer ?hm . }",
  };
  auto g = BuildKg(7, 800);
  for (const char* body : kQueries) {
    const std::string q = std::string(kPfx) + body;
    for (int threads : {1, 4}) {
      RunOpts oracle;
      oracle.threads = threads;
      oracle.strategy = sparql::JoinStrategy::kNestedLoop;
      RunOpts adaptive = oracle;
      adaptive.strategy = sparql::JoinStrategy::kAdaptive;
      sparql::ExecStats want_stats, got_stats;
      const std::string want = RunTsv(g.get(), q, oracle, &want_stats);
      ASSERT_GT(want.size(), 1000u);
      EXPECT_EQ(RunTsv(g.get(), q, adaptive, &got_stats), want)
          << "threads=" << threads << "\n" << q;
      ASSERT_EQ(got_stats.join_strategy, want_stats.join_strategy) << q;
      ASSERT_EQ(got_stats.join_strategy,
                (std::vector<char>{'N', 'N'})) << q;
      EXPECT_EQ(got_stats.rows_scanned[0], want_stats.rows_scanned[0]);
      EXPECT_LT(got_stats.rows_scanned[1], want_stats.rows_scanned[1])
          << "threads=" << threads << "\n" << q;
    }
  }
}

// ---- re-planning ----------------------------------------------------------

// A plan-cache hit keeps no join order: it plans each BGP run again. So the
// DP plan must be a pure function of the run. Planning it twice on one
// graph, and once on the mapped copy of that graph, gives the same order,
// strategies, explainable plan and rows.
TEST(PlannerV2Test, ReplanningReproducesPlanBitForBit) {
  auto heap = BuildKg(7, 300);
  auto mapped = OpenMapped(*heap, "replan");
  auto run = [&](const Graph& g, sparql::ExecStats* stats) {
    sparql::VarTable vars;
    std::vector<sparql::CompiledPattern> patterns = {
        Pat(g, &vars, "?l", "manufacturer", "?m"),
        Pat(g, &vars, "?m", "origin", "?c"),
        Pat(g, &vars, "?c", "GDPPerCapita", "?gdp"),
        Pat(g, &vars, "?l", "price", "?p"),
    };
    sparql::SolutionTable rows = test::Table(vars.size(), {{}});
    sparql::JoinOptions jopts;
    jopts.use_dp = true;
    jopts.stats = stats;
    Status st = sparql::JoinBgp(g, patterns, vars.size(), /*reorder=*/true,
                                jopts, &rows);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return test::Rows(rows);
  };
  sparql::ExecStats first_stats;
  const test::RowList first = run(*heap, &first_stats);
  ASSERT_GT(first.size(), 0u);
  EXPECT_EQ(first_stats.dp_plans, 1u);
  ASSERT_EQ(first_stats.join_order.size(), 4u);
  ASSERT_EQ(first_stats.plan_shapes.size(), 1u);

  for (const Graph* g : {heap.get(), mapped.get()}) {
    const char* backend = g == heap.get() ? "heap" : "mapped";
    sparql::ExecStats again_stats;
    const test::RowList again = run(*g, &again_stats);
    ASSERT_EQ(again.size(), first.size()) << backend;
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i], first[i]) << backend << " row " << i;
    }
    EXPECT_EQ(again_stats.dp_plans, 1u) << backend;
    ASSERT_EQ(again_stats.plan_shapes.size(), 1u) << backend;
    EXPECT_EQ(again_stats.plan_shapes[0], first_stats.plan_shapes[0])
        << backend;
    EXPECT_EQ(again_stats.join_order, first_stats.join_order) << backend;
    EXPECT_EQ(again_stats.join_strategy, first_stats.join_strategy)
        << backend;
  }
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
