// Parallel execution is a pure performance knob: for every query the
// morsel-parallel path must produce results byte-identical to the serial
// path (DESIGN.md, threading model). This suite locks that contract in
// across the SPARQL executor and OLAP materialization. The corpora are
// sized so the parallel paths actually trigger (>= 128 seed rows / items).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analytics/olap.h"
#include "analytics/session.h"
#include "common/query_context.h"
#include "common/trace.h"
#include "rdf/graph.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa {
namespace {

const std::string kEx = workload::kExampleNs;
const std::string kInv = workload::kInvoiceNs;

class SparqlParallelEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::ProductKgOptions opt;
    opt.laptops = 600;
    workload::GenerateProductKg(&g_, opt);
  }

  std::string RunTsv(const std::string& q, int threads) {
    auto parsed = sparql::ParseQuery(q);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << q;
    if (!parsed.ok()) return "";
    sparql::Executor exec(&g_);
    exec.set_thread_count(threads);
    auto res = exec.Execute(parsed.value());
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
    last_stats_ = exec.stats();
    return res.ok() ? res.value().ToTsv() : std::string();
  }

  void ExpectEquivalent(const std::string& q) {
    std::string serial = RunTsv(q, 1);
    std::string parallel = RunTsv(q, 4);
    EXPECT_EQ(serial, parallel) << "parallel result diverges for: " << q;
  }

  rdf::Graph g_;
  sparql::ExecStats last_stats_;
};

constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

TEST_F(SparqlParallelEquivalenceTest, BgpJoinCorpus) {
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x ?p WHERE { ?x ex:manufacturer ?m . "
                   "?x ex:price ?p . }");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x ?c WHERE { ?x ex:manufacturer ?m . "
                   "?m ex:origin ?c . }");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x WHERE { ?x ex:price ?p . FILTER(?p > 900) }");
}

TEST_F(SparqlParallelEquivalenceTest, AggregatesDistinctOrderBy) {
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?m (SUM(?p) AS ?s) (COUNT(?x) AS ?n) "
                   "WHERE { ?x ex:manufacturer ?m . ?x ex:price ?p . } "
                   "GROUP BY ?m");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?m (AVG(?p) AS ?a) (MIN(?p) AS ?lo) "
                   "(MAX(?p) AS ?hi) "
                   "WHERE { ?x ex:manufacturer ?m . ?x ex:price ?p . } "
                   "GROUP BY ?m");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT DISTINCT ?m WHERE { ?x ex:manufacturer ?m . }");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x ?p WHERE { ?x ex:price ?p . } ORDER BY ?p ?x");
}

TEST_F(SparqlParallelEquivalenceTest, HavingAndExpressionProjection) {
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?m (COUNT(?x) AS ?n) "
                   "WHERE { ?x ex:manufacturer ?m . } "
                   "GROUP BY ?m HAVING (COUNT(?x) > 10)");
  ExpectEquivalent(std::string(kPfx) +
                   "SELECT ?x (SUBSTR(STR(?x), 30) AS ?tail) "
                   "WHERE { ?x ex:price ?p . FILTER(REGEX(STR(?x), "
                   "\"laptop[0-9]*[02468]$\")) }");
}

TEST_F(SparqlParallelEquivalenceTest, StatsReportParallelExecution) {
  std::string q = std::string(kPfx) +
                  "SELECT ?x ?p WHERE { ?x ex:manufacturer ?m . "
                  "?x ex:price ?p . }";
  (void)RunTsv(q, 4);
  EXPECT_EQ(last_stats_.threads, 4);
  EXPECT_EQ(last_stats_.bgp_patterns, 2u);
  ASSERT_EQ(last_stats_.rows_scanned.size(), 2u);
  EXPECT_GT(last_stats_.rows_scanned[0], 0u);
  EXPECT_GT(last_stats_.morsel_count, 0u);
  EXPECT_EQ(last_stats_.join_order.size(), 2u);
  EXPECT_GE(last_stats_.total_ms, 0.0);
}

TEST_F(SparqlParallelEquivalenceTest, ExistsInSelectExpressionsMatchesBind) {
  // EXISTS read by projection, GROUP BY keys, HAVING and ORDER BY answers
  // as the same EXISTS in BIND or FILTER does, serial and parallel.
  const std::pair<const char*, const char*> kPairs[] = {
      {"SELECT ?l (EXISTS { ?l ex:manufacturer ?m } AS ?has) "
       "WHERE { ?l ex:price ?p }",
       "SELECT ?l ?has WHERE { ?l ex:price ?p . "
       "BIND(EXISTS { ?l ex:manufacturer ?m } AS ?has) }"},
      {"SELECT ?m (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ?m } "
       "GROUP BY ?m HAVING (EXISTS { ?m ex:origin ?c })",
       "SELECT ?m (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ?m . "
       "FILTER(EXISTS { ?m ex:origin ?c }) } GROUP BY ?m"},
      {"SELECT (COUNT(?l) AS ?n) WHERE { ?l ex:price ?p } "
       "GROUP BY (EXISTS { ?l ex:price ?q . FILTER(?q < 1000) })",
       "SELECT (COUNT(?l) AS ?n) WHERE { ?l ex:price ?p . "
       "BIND(EXISTS { ?l ex:price ?q . FILTER(?q < 1000) } AS ?cheap) } "
       "GROUP BY ?cheap"},
      {"SELECT ?l WHERE { ?l ex:price ?p } "
       "ORDER BY DESC(EXISTS { ?l ex:price ?q . FILTER(?q < 1000) }) ?l",
       "SELECT ?l WHERE { ?l ex:price ?p . "
       "BIND(EXISTS { ?l ex:price ?q . FILTER(?q < 1000) } AS ?k) } "
       "ORDER BY DESC(?k) ?l"},
  };
  for (const auto& [expr_form, bind_form] : kPairs) {
    const std::string reference = RunTsv(std::string(kPfx) + bind_form, 1);
    ASSERT_NE(reference.find('\n'), reference.rfind('\n')) << bind_form;
    for (int threads : {1, 4}) {
      EXPECT_EQ(RunTsv(std::string(kPfx) + expr_form, threads), reference)
          << "threads=" << threads << ": " << expr_form;
    }
  }
}

TEST_F(SparqlParallelEquivalenceTest, ShortFormsMatchDottedAndBindForms) {
  // A FILTER, BIND or OPTIONAL right after a triple (no '.'), and a GROUP BY
  // key named with AS, answer as their dotted or BIND forms do.
  const std::pair<const char*, const char*> kPairs[] = {
      {"SELECT ?l WHERE { ?l ex:price ?p FILTER(?p < 1000) }",
       "SELECT ?l WHERE { ?l ex:price ?p . FILTER(?p < 1000) }"},
      {"SELECT ?l ?has WHERE { ?l ex:price ?p "
       "BIND(EXISTS { ?l ex:manufacturer ?m } AS ?has) }",
       "SELECT ?l ?has WHERE { ?l ex:price ?p . "
       "BIND(EXISTS { ?l ex:manufacturer ?m } AS ?has) }"},
      {"SELECT ?l ?c WHERE { ?l ex:price ?p "
       "OPTIONAL { ?l ex:manufacturer ?m . ?m ex:origin ?c } }",
       "SELECT ?l ?c WHERE { ?l ex:price ?p . "
       "OPTIONAL { ?l ex:manufacturer ?m . ?m ex:origin ?c } }"},
      {"SELECT ?cheap (COUNT(?l) AS ?n) WHERE { ?l ex:price ?p } "
       "GROUP BY (?p < 1000 AS ?cheap)",
       "SELECT ?cheap (COUNT(?l) AS ?n) WHERE { ?l ex:price ?p . "
       "BIND(?p < 1000 AS ?cheap) } GROUP BY ?cheap"},
      {"SELECT ?cheap (COUNT(?l) AS ?n) WHERE { ?l ex:price ?p } "
       "GROUP BY (EXISTS { ?l ex:price ?q . FILTER(?q < 1000) } AS ?cheap)",
       "SELECT ?cheap (COUNT(?l) AS ?n) WHERE { ?l ex:price ?p . "
       "BIND(EXISTS { ?l ex:price ?q . FILTER(?q < 1000) } AS ?cheap) } "
       "GROUP BY ?cheap"},
  };
  for (const auto& [short_form, long_form] : kPairs) {
    const std::string reference = RunTsv(std::string(kPfx) + long_form, 1);
    ASSERT_NE(reference.find('\n'), reference.rfind('\n')) << long_form;
    for (int threads : {1, 4}) {
      EXPECT_EQ(RunTsv(std::string(kPfx) + short_form, threads), reference)
          << "threads=" << threads << ": " << short_form;
    }
  }
}

// One case per parallel branch of the BGP join. Each query folds the join
// into one ordered GROUP_CONCAT group, so the single answer row spells out
// the join's row order, and the only morsels counted come from the join
// (one group and one projected row never split).
struct BranchCase {
  const char* name;
  const char* body;    // the WHERE body
  const char* digest;  // per-row CONCAT arguments
  bool use_dp;
  bool reorder;
  sparql::JoinStrategy strategy;
  const char* strategies;  // expected ExecStats::join_strategy, in order
};

std::string DigestQuery(const BranchCase& c, bool with_rows) {
  std::string select = "SELECT (COUNT(*) AS ?n)";
  if (with_rows) {
    select += std::string(" (GROUP_CONCAT(CONCAT(") + c.digest +
              "); separator=\"|\") AS ?rows)";
  }
  return std::string(kPfx) + select + " WHERE { " + c.body + " }";
}

struct BranchRun {
  std::string tsv;
  sparql::ExecStats stats;
  Status status;
};

BranchRun RunBranch(rdf::Graph* g, const BranchCase& c, int threads,
                    QueryContext ctx = QueryContext(), bool with_rows = true) {
  BranchRun run;
  auto parsed = sparql::ParseQuery(DigestQuery(c, with_rows));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return run;
  sparql::Executor exec(g, c.reorder);
  exec.set_thread_count(threads);
  exec.set_join_strategy(c.strategy);
  exec.set_use_dp(c.use_dp);
  exec.set_query_context(std::move(ctx));
  auto res = exec.Execute(parsed.value());
  run.status = res.status();
  run.stats = exec.stats();
  if (res.ok()) run.tsv = res.value().ToTsv();
  return run;
}

const BranchCase kBranchCases[] = {
    {"v1 one-row seed", "?l ex:price ?p .", "STR(?l), STR(?p)", false, false,
     sparql::JoinStrategy::kAdaptive, "N"},
    {"nested-loop row morsels", "?l ex:price ?p . ?l ex:manufacturer ?m .",
     "STR(?l), STR(?p), STR(?m)", false, false,
     sparql::JoinStrategy::kNestedLoop, "NN"},
    {"hash probe", "?l ex:manufacturer ?m . ?m ex:origin ?c .",
     "STR(?l), STR(?m), STR(?c)", false, false,
     sparql::JoinStrategy::kAdaptive, "NH"},
    {"DP seed and NLJ", "?l ex:price ?p . ?l ex:releaseDate ?d .",
     "STR(?l), STR(?p), STR(?d)", true, false,
     sparql::JoinStrategy::kAdaptive, "SN"},
    {"seeded OPTIONAL",
     "?m ex:origin ?c . OPTIONAL { ?l ex:manufacturer ?m . ?l ex:price ?p }",
     "STR(?m), STR(?l), STR(?p)", false, false,
     sparql::JoinStrategy::kAdaptive, nullptr},
};

// A product KG with few companies, so a seeded OPTIONAL run (one company
// per seed row) joins hundreds of laptops.
void BuildFewCompanyKg(rdf::Graph* g, size_t laptops) {
  workload::ProductKgOptions opt;
  opt.laptops = laptops;
  opt.companies = 3;
  workload::GenerateProductKg(g, opt);
}

TEST_F(SparqlParallelEquivalenceTest, EveryJoinBranchSplitsAndMatchesSerial) {
  rdf::Graph few;
  BuildFewCompanyKg(&few, 600);
  for (const BranchCase& c : kBranchCases) {
    rdf::Graph* g = c.strategies == nullptr ? &few : &g_;
    BranchRun serial = RunBranch(g, c, 1);
    BranchRun parallel = RunBranch(g, c, 4);
    ASSERT_TRUE(serial.status.ok())
        << c.name << ": " << serial.status.ToString();
    ASSERT_TRUE(parallel.status.ok()) << c.name;
    EXPECT_EQ(serial.tsv, parallel.tsv) << c.name;
    EXPECT_GT(serial.tsv.size(), 1000u) << c.name;
    EXPECT_EQ(serial.stats.morsel_count, 0u) << c.name;
    EXPECT_GT(parallel.stats.morsel_count, 0u) << c.name;
    if (c.strategies != nullptr) {
      EXPECT_EQ(std::string(parallel.stats.join_strategy.begin(),
                            parallel.stats.join_strategy.end()),
                c.strategies)
          << c.name;
    }
  }
}

TEST_F(SparqlParallelEquivalenceTest, SecondStepsSplitBeyondTheirSeed) {
  // The two-step cases must split their second step too: they count more
  // morsels than their seed pattern does alone.
  const BranchCase seed_only[] = {
      {"nlj seed", "?l ex:price ?p .", "STR(?l)", false, false,
       sparql::JoinStrategy::kNestedLoop, "N"},
      {"hash seed", "?l ex:manufacturer ?m .", "STR(?l)", false, false,
       sparql::JoinStrategy::kAdaptive, "N"},
      {"dp seed", "?l ex:price ?p .", "STR(?l)", true, false,
       sparql::JoinStrategy::kAdaptive, "S"},
  };
  const BranchCase* two_step[] = {&kBranchCases[1], &kBranchCases[2],
                                  &kBranchCases[3]};
  for (size_t i = 0; i < 3; ++i) {
    BranchRun seed = RunBranch(&g_, seed_only[i], 4);
    BranchRun both = RunBranch(&g_, *two_step[i], 4);
    ASSERT_TRUE(seed.status.ok() && both.status.ok()) << two_step[i]->name;
    EXPECT_EQ(std::string(seed.stats.join_strategy.begin(),
                          seed.stats.join_strategy.end()),
              seed_only[i].strategies);
    EXPECT_GT(seed.stats.morsel_count, 0u) << seed_only[i].name;
    EXPECT_GT(both.stats.morsel_count, seed.stats.morsel_count)
        << two_step[i]->name;
  }
}

// Deadlines that expire inside a parallel join step, on a KG large enough
// that each step runs for milliseconds.
class ParallelDeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new rdf::Graph();
    BuildFewCompanyKg(graph_, 20000);
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }
  static rdf::Graph* graph_;
};

rdf::Graph* ParallelDeadlineTest::graph_ = nullptr;

// The query thread's bgp-join spans in creation order.
std::vector<Tracer::SpanRecord> JoinSpans(const Tracer& tracer) {
  std::vector<Tracer::SpanRecord> spans;
  for (const Tracer::SpanRecord& s : tracer.FinishedSpans()) {
    if (s.name == "bgp-join") spans.push_back(s);
  }
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  return spans;
}

uint64_t OutputRows(const Tracer::SpanRecord& span) {
  for (const auto& [key, value] : span.args) {
    if (key == "output_rows") return std::stoull(value);
  }
  return 0;
}

TEST_F(ParallelDeadlineTest, DeadlineInsideAMorselUnwindsTyped) {
  for (const BranchCase& c : kBranchCases) {
    // Warm run (index builds), then a traced reference run that times the
    // last join step.
    ASSERT_TRUE(RunBranch(graph_, c, 4, QueryContext(), false).status.ok());
    auto ref_tracer = std::make_shared<Tracer>();
    QueryContext ref_ctx;
    ref_ctx.set_tracer(ref_tracer);
    BranchRun full = RunBranch(graph_, c, 4, ref_ctx, false);
    ASSERT_TRUE(full.status.ok()) << c.name;
    const std::vector<Tracer::SpanRecord> ref = JoinSpans(*ref_tracer);
    ASSERT_FALSE(ref.empty());
    double exec_start_us = 0;
    for (const Tracer::SpanRecord& s : ref_tracer->FinishedSpans()) {
      if (s.name == "execute") exec_start_us = s.start_us;
    }
    ASSERT_GT(OutputRows(ref.back()), 1000u) << c.name;

    // Deadlines spread over the reference run's length (a golden-ratio
    // sequence, so each prefix covers it evenly): each run either answers
    // in full or unwinds with the typed status, and some run is cut inside
    // a join step with part of that step's output abandoned.
    bool cut_inside_step = false;
    for (int k = 1; k <= 48 && !cut_inside_step; ++k) {
      const double at = std::fmod(k * 0.6180339887, 1.0);
      QueryContext ctx = QueryContext::WithDeadlineMs(at * full.stats.total_ms);
      auto tracer = std::make_shared<Tracer>();
      ctx.set_tracer(tracer);
      BranchRun run = RunBranch(graph_, c, 4, ctx, false);
      if (run.status.ok()) {
        EXPECT_EQ(run.tsv, full.tsv) << c.name;
        continue;
      }
      EXPECT_EQ(run.status.code(), StatusCode::kDeadlineExceeded)
          << c.name << ": " << run.status.ToString();
      EXPECT_TRUE(run.stats.aborted) << c.name;
      const std::vector<Tracer::SpanRecord> spans = JoinSpans(*tracer);
      cut_inside_step = !spans.empty() && spans.size() <= ref.size() &&
                        OutputRows(spans.back()) <
                            OutputRows(ref[spans.size() - 1]);
    }
    EXPECT_TRUE(cut_inside_step) << c.name;
  }
}

TEST(OlapParallelEquivalenceTest, MaterializedCubeMatchesSerial) {
  rdf::Graph g;
  workload::InvoicesOptions opt;
  opt.invoices = 3000;
  opt.branches = 10;
  opt.products = 50;
  opt.brands = 8;
  workload::GenerateInvoices(&g, opt);

  auto build_cube = [&](analytics::AnalyticsSession* session) {
    analytics::Dimension time;
    time.name = "time";
    time.levels = {
        {"date", {kInv + "hasDate"}, ""},
        {"month", {kInv + "hasDate"}, "MONTH"},
    };
    analytics::Dimension product;
    product.name = "product";
    product.levels = {
        {"product", {kInv + "delivers"}, ""},
        {"brand", {kInv + "delivers", kInv + "brand"}, ""},
    };
    analytics::MeasureSpec measure;
    measure.path = {kInv + "inQuantity"};
    measure.ops = {hifun::AggOp::kSum};
    return analytics::OlapView(session, {time, product}, measure);
  };

  analytics::AnalyticsSession serial_s(&g);
  analytics::AnalyticsSession parallel_s(&g);
  ASSERT_TRUE(serial_s.fs().ClickClass(kInv + "Invoice").ok());
  ASSERT_TRUE(parallel_s.fs().ClickClass(kInv + "Invoice").ok());
  analytics::OlapView serial_cube = build_cube(&serial_s);
  analytics::OlapView parallel_cube = build_cube(&parallel_s);
  parallel_cube.set_thread_count(4);

  for (int step = 0; step < 3; ++step) {
    auto a = serial_cube.Materialize();
    auto b = parallel_cube.Materialize();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().table().ToTsv(), b.value().table().ToTsv())
        << "cube diverges at step " << step;
    (void)serial_cube.RollUp("time");
    (void)parallel_cube.RollUp("time");
  }
  EXPECT_EQ(parallel_cube.last_exec_stats().threads, 4);
}

}  // namespace
}  // namespace rdfa
