// Deadline + cooperative-cancellation coverage across the query path:
// QueryContext semantics, deadline trips mid-BGP-join on a large KG,
// deterministic cancellation during the parallel group-aggregate stage
// (CancelAfterChecks fault injection), HIFUN-evaluator and roll-up
// unwinding, and the zero-deadline fast-fail.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "analytics/rollup_cache.h"
#include "common/query_context.h"
#include "common/trace.h"
#include "hifun/evaluator.h"
#include "hifun/hifun_parser.h"
#include "rdf/rdfs.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "translator/translator.h"
#include "workload/products.h"

namespace rdfa {
namespace {

TEST(QueryContextTest, DefaultContextNeverTrips) {
  QueryContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.cancelled());
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.Check("anywhere").ok());
  EXPECT_EQ(ctx.trip_stage(), nullptr);
}

TEST(QueryContextTest, NonPositiveBudgetIsAlreadyExpired) {
  QueryContext ctx = QueryContext::WithDeadlineMs(0);
  EXPECT_TRUE(ctx.expired());
  Status st = ctx.Check("admission");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_STREQ(ctx.trip_stage(), "admission");
}

TEST(QueryContextTest, CancelIsSharedAcrossCopies) {
  QueryContext ctx;
  QueryContext copy = ctx;
  ctx.Cancel();
  EXPECT_TRUE(copy.cancelled());
  Status st = copy.Check("bgp-join");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

TEST(QueryContextTest, ChildTakesTheTighterDeadlineAndSharesCancel) {
  QueryContext parent = QueryContext::WithDeadlineMs(1e9);
  QueryContext child = parent.ChildWithDeadlineMs(1e6);
  EXPECT_LT(child.remaining_ms(), 2e6);
  // A looser child budget must not loosen an already-tight parent.
  QueryContext tight = QueryContext::WithDeadlineMs(0);
  QueryContext still_tight = tight.ChildWithDeadlineMs(1e6);
  EXPECT_TRUE(still_tight.expired());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
}

TEST(QueryContextTest, CancelAfterChecksTripsOnTheNthCheck) {
  QueryContext ctx;
  ctx.CancelAfterChecks(3);
  EXPECT_TRUE(ctx.Check("s1").ok());
  EXPECT_TRUE(ctx.Check("s2").ok());
  Status st = ctx.Check("s3");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_STREQ(ctx.trip_stage(), "s3");
  EXPECT_EQ(ctx.checks_performed(), 3);
}

/// Executes `sparql` over `g` with the given context and thread budget.
Result<sparql::ResultTable> RunQuery(rdf::Graph* g, const std::string& sparql,
                                const QueryContext& ctx, int threads,
                                sparql::ExecStats* stats) {
  auto parsed = sparql::ParseQuery(sparql);
  if (!parsed.ok()) return parsed.status();
  sparql::Executor exec(g);
  exec.set_thread_count(threads);
  exec.set_query_context(ctx);
  Result<sparql::ResultTable> table = exec.Execute(parsed.value());
  *stats = exec.stats();
  return table;
}

/// Shares one large product KG (~150k triples after closure) across the
/// deadline tests — it is expensive to generate.
class DeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new rdf::Graph();
    workload::ProductKgOptions opt;
    opt.laptops = 20000;
    opt.companies = 205;
    workload::GenerateProductKg(graph_, opt);
    rdf::MaterializeRdfsClosure(graph_);
    ASSERT_GT(graph_->size(), 100000u);

    rdf::PrefixMap prefixes;
    auto q = hifun::ParseHifun(
        "((manufacturer x YEAR(releaseDate)), price, AVG) over Laptop",
        prefixes, workload::kExampleNs);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto sparql = translator::TranslateToSparql(q.value());
    ASSERT_TRUE(sparql.ok()) << sparql.status().ToString();
    *query_ = sparql.value();
  }

  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  static rdf::Graph* graph_;
  static std::string* query_;
};

rdf::Graph* DeadlineTest::graph_ = nullptr;
std::string* DeadlineTest::query_ = new std::string();

TEST_F(DeadlineTest, OneMsDeadlineTripsWithPartialStats) {
  // Baseline: unrestricted run answers in full.
  sparql::ExecStats full_stats;
  auto full = RunQuery(graph_, *query_, QueryContext(), 1, &full_stats);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full.value().num_rows(), 0u);
  EXPECT_FALSE(full_stats.aborted);

  // A 1 ms budget cannot evaluate a 150k-triple grouping query: it must
  // unwind with the typed status, not return a full (or truncated) table.
  sparql::ExecStats stats;
  QueryContext ctx = QueryContext::WithDeadlineMs(1);
  auto clipped = RunQuery(graph_, *query_, ctx, 1, &stats);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kDeadlineExceeded)
      << clipped.status().ToString();
  EXPECT_TRUE(stats.aborted);
  EXPECT_FALSE(stats.abort_stage.empty());
  EXPECT_NE(stats.Summary().find("aborted@"), std::string::npos);
}

TEST_F(DeadlineTest, NoDeadlineRunIsByteIdenticalToContextFreeRun) {
  sparql::ExecStats stats;
  auto with_ctx =
      RunQuery(graph_, *query_, QueryContext::WithDeadlineMs(1e9), 4, &stats);
  ASSERT_TRUE(with_ctx.ok()) << with_ctx.status().ToString();

  auto parsed = sparql::ParseQuery(*query_);
  ASSERT_TRUE(parsed.ok());
  sparql::Executor bare(graph_);
  bare.set_thread_count(4);
  auto without_ctx = bare.Execute(parsed.value());
  ASSERT_TRUE(without_ctx.ok());
  EXPECT_EQ(with_ctx.value().ToTsv(), without_ctx.value().ToTsv());
}

TEST_F(DeadlineTest, ZeroDeadlineFastFailsAtAdmission) {
  sparql::ExecStats stats;
  auto r = RunQuery(graph_, *query_, QueryContext::WithDeadlineMs(0), 1, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.abort_stage, "admission");
  // Fast-fail means no join work was done at all.
  EXPECT_EQ(stats.bgp_patterns, 0u);
}

TEST_F(DeadlineTest, PreCancelledContextFailsFast) {
  QueryContext ctx;
  ctx.Cancel();
  sparql::ExecStats stats;
  auto r = RunQuery(graph_, *query_, ctx, 1, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.abort_stage, "admission");
}

TEST_F(DeadlineTest, CancelDuringParallelGroupAggregate) {
  // Phase 1: count the deterministic stage-boundary checks of a clean run.
  QueryContext probe;
  sparql::ExecStats stats;
  auto full = RunQuery(graph_, *query_, probe, 4, &stats);
  ASSERT_TRUE(full.ok());
  int64_t checks = probe.checks_performed();
  ASSERT_GT(checks, 4);

  // Phase 2: rerun, tripping on the final counted check — which lands in
  // the group-aggregate stage for a grouping query.
  QueryContext ctx;
  ctx.CancelAfterChecks(checks);
  auto clipped = RunQuery(graph_, *query_, ctx, 4, &stats);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kCancelled)
      << clipped.status().ToString();
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.abort_stage, "group-aggregate");
}

TEST_F(DeadlineTest, AbortInGroupAggregateKeepsTheStagePartialTime) {
  // Phase 1: count the checks of a clean serial run.
  QueryContext probe;
  sparql::ExecStats stats;
  ASSERT_TRUE(RunQuery(graph_, *query_, probe, 1, &stats).ok());

  // Phase 2: trip on the final counted check, inside group-aggregate, with
  // a tracer attached.
  QueryContext ctx;
  ctx.CancelAfterChecks(probe.checks_performed());
  auto tracer = std::make_shared<Tracer>();
  ctx.set_tracer(tracer);
  auto clipped = RunQuery(graph_, *query_, ctx, 1, &stats);
  ASSERT_FALSE(clipped.ok());
  ASSERT_EQ(stats.abort_stage, "group-aggregate");

  // The stage's span closes on unwind and is group_agg_ms's clock, so the
  // time spent before the trip is kept and equals the span.
  double agg_span_ms = 0;
  double exec_span_ms = 0;
  for (const Tracer::SpanRecord& s : tracer->FinishedSpans()) {
    if (s.name == "group-aggregate") agg_span_ms += s.dur_us / 1000.0;
    if (s.name == "execute") exec_span_ms += s.dur_us / 1000.0;
  }
  EXPECT_GT(stats.group_agg_ms, 0.0);
  EXPECT_NEAR(stats.group_agg_ms, agg_span_ms, 1e-6);
  EXPECT_NEAR(stats.total_ms, exec_span_ms, 1e-6);
}

TEST(HifunDeadlineTest, EvaluatorUnwindsOnExpiredAndCancelled) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  rdf::PrefixMap prefixes;
  auto q = hifun::ParseHifun("(manufacturer, price, AVG) over Laptop",
                             prefixes, workload::kExampleNs);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  hifun::Evaluator eval(g);

  auto ok = eval.Evaluate(q.value());
  ASSERT_TRUE(ok.ok());
  ASSERT_GT(ok.value().num_rows(), 0u);

  auto expired = eval.Evaluate(q.value(), QueryContext::WithDeadlineMs(0));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // Deterministic mid-evaluation cancellation via check-count replay.
  QueryContext probe;
  ASSERT_TRUE(eval.Evaluate(q.value(), probe).ok());
  ASSERT_GT(probe.checks_performed(), 1);
  QueryContext ctx;
  ctx.CancelAfterChecks(probe.checks_performed());
  auto cancelled = eval.Evaluate(q.value(), ctx);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

TEST(RollUpDeadlineTest, RollUpHonorsTheContext) {
  sparql::ResultTable table({"brand", "sales"});
  for (int i = 0; i < 10; ++i) {
    table.AddRow({rdf::Term::Iri("urn:b" + std::to_string(i % 3)),
                  rdf::Term::Integer(i)});
  }
  analytics::AnswerFrame frame(std::move(table));

  auto ok = analytics::RollUpAnswer(frame, {"brand"}, "sales",
                                    hifun::AggOp::kSum);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().table().num_rows(), 3u);

  auto expired =
      analytics::RollUpAnswer(frame, {"brand"}, "sales", hifun::AggOp::kSum,
                              QueryContext::WithDeadlineMs(0));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  QueryContext cancelled;
  cancelled.Cancel();
  auto avg = analytics::RollUpAverage(frame, {"brand"}, "sales", "sales",
                                      cancelled);
  ASSERT_FALSE(avg.ok());
  EXPECT_EQ(avg.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace rdfa
