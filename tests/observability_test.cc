// Observability layer coverage: the per-query span Tracer (Chrome
// trace-event export, RAII closure on abort, tracing-on/off byte-identity),
// the process-wide MetricsRegistry (sharded counters/histograms, Prometheus
// exposition, exactly-once per-query ticks), the structured query log, and
// the bench_util helpers that ride along (Percentile edge cases, JSON
// escaping). Runs in both the plain and the TSan-labelled suite — the
// concurrent tests are the reason.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_util.h"
#include "analytics/rollup_cache.h"
#include "common/metrics.h"
#include "common/query_context.h"
#include "common/query_log.h"
#include "common/query_registry.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "endpoint/endpoint.h"
#include "rdf/binary_io.h"
#include "rdf/mapped_graph.h"
#include "rdf/mvcc.h"
#include "sparql/bgp.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "test_paths.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa {
namespace {

using rdf::Term;

constexpr char kInvQuery[] =
    "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
    "SELECT ?b (SUM(?q) AS ?tot) WHERE { ?i inv:takesPlaceAt ?b . ?i "
    "inv:inQuantity ?q . } GROUP BY ?b";

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON well-formedness checker, so the tests can
// assert "this parses" without external dependencies.
class JsonChecker {
 public:
  static bool Valid(const std::string& s) {
    JsonChecker c(s);
    c.SkipWs();
    if (!c.Value()) return false;
    c.SkipWs();
    return c.i_ == s.size();
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool Literal(const char* word) {
    size_t n = std::string(word).size();
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }
  bool String() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
        char e = s_[i_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i_;
            if (i_ >= s_.size() || !std::isxdigit(s_[i_])) return false;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    size_t digits = 0;
    while (i_ < s_.size() && std::isdigit(s_[i_])) ++i_, ++digits;
    if (digits == 0) return false;
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      digits = 0;
      while (i_ < s_.size() && std::isdigit(s_[i_])) ++i_, ++digits;
      if (digits == 0) return false;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      digits = 0;
      while (i_ < s_.size() && std::isdigit(s_[i_])) ++i_, ++digits;
      if (digits == 0) return false;
    }
    return i_ > start;
  }
  bool Object() {
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') return false;
    ++i_;
    return true;
  }
  bool Array() {
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') return false;
    ++i_;
    return true;
  }
  bool Value() {
    SkipWs();
    if (i_ >= s_.size()) return false;
    char c = s_[i_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  const std::string& s_;
  size_t i_ = 0;
};

TEST(JsonCheckerTest, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(JsonChecker::Valid("{\"a\":[1,2.5,-3e2,\"x\\n\",true,null]}"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":}"));
  EXPECT_FALSE(JsonChecker::Valid("{\"a\":1} trailing"));
  EXPECT_FALSE(JsonChecker::Valid("\"unterminated"));
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, NullTracerSpansAreNoOps) {
  TraceSpan span(nullptr, "anything");
  span.Arg("k", int64_t{1});
  span.Arg("s", "v");
  EXPECT_FALSE(span.enabled());
  // Nothing to assert beyond "does not crash": the disabled path must be
  // safe from any thread with zero side effects.
}

TEST(TracerTest, SpansRecordNamesArgsAndNesting) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, "outer");
    outer.Arg("rows", uint64_t{42});
    {
      TraceSpan inner(&tracer, "inner");
      inner.Arg("strategy", "hash");
      inner.Arg("hit", true);
    }
  }
  tracer.Instant("marker");
  ASSERT_EQ(tracer.span_count(), 3u);
  EXPECT_TRUE(tracer.HasSpan("outer"));
  EXPECT_TRUE(tracer.HasSpan("inner"));
  EXPECT_FALSE(tracer.HasSpan("absent"));

  auto spans = tracer.FinishedSpans();
  // Completion order: inner closes before outer.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  // Containment: inner starts no earlier and ends no later than outer.
  EXPECT_GE(spans[0].start_us, spans[1].start_us);
  EXPECT_LE(spans[0].start_us + spans[0].dur_us,
            spans[1].start_us + spans[1].dur_us + 1e-3);
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[0].first, "strategy");
  EXPECT_EQ(spans[0].args[0].second, "\"hash\"");
  EXPECT_EQ(spans[0].args[1].second, "true");

  std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TracerTest, ConcurrentSpansFromManyThreads) {
  Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span(&tracer, "work");
        span.Arg("i", static_cast<int64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.span_count(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  // Thread ordinals are small and dense, not raw thread ids.
  for (const auto& s : tracer.FinishedSpans()) {
    EXPECT_GE(s.tid, 0);
    EXPECT_LT(s.tid, kThreads);
  }
  EXPECT_TRUE(JsonChecker::Valid(tracer.ToChromeJson()));
}

// ---------------------------------------------------------------------------
// Pipeline stage coverage + tracing-on/off equivalence

TEST(TraceCoverageTest, TracedQueryCoversThePipelineStages) {
  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  endpoint::SimulatedEndpoint ep(&g, endpoint::LatencyProfile::Local());

  auto tracer = std::make_shared<Tracer>();
  QueryContext ctx;
  ctx.set_tracer(tracer);
  auto resp = ep.Query(kInvQuery, ctx);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp.value().status.ok());

  // Roll up a materialized frame through the same tracer: the cache path
  // is a separate entry point a plain SPARQL query never takes.
  sparql::ResultTable table({"brand", "sales"});
  for (int i = 0; i < 9; ++i) {
    table.AddRow({Term::Iri("urn:b" + std::to_string(i % 3)),
                  Term::Integer(i)});
  }
  analytics::AnswerFrame frame(std::move(table));
  auto rolled = analytics::RollUpAnswer(frame, {"brand"}, "sales",
                                        hifun::AggOp::kSum, 1, ctx);
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();

  const char* kExpectedStages[] = {"admission-queue", "parse",   "plan",
                                   "bgp-join",        "execute", "index-build",
                                   "group-aggregate", "rollup-cache"};
  size_t covered = 0;
  for (const char* stage : kExpectedStages) {
    EXPECT_TRUE(tracer->HasSpan(stage)) << "missing span: " << stage;
    if (tracer->HasSpan(stage)) ++covered;
  }
  EXPECT_GE(covered, 6u);
  EXPECT_TRUE(JsonChecker::Valid(tracer->ToChromeJson()));
}

// The first merge-join query on a fresh graph builds the secondary
// permutations in their own span, charged to index_build_ms rather than to
// the join; later queries find them built.
TEST(TraceCoverageTest, SecondaryIndexBuildHasItsOwnSpan) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 2000;
  workload::GenerateProductKg(&g, opt);
  auto parsed = sparql::ParseQuery(
      "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
      "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . }");
  ASSERT_TRUE(parsed.ok());
  auto run = [&](const std::shared_ptr<Tracer>& tracer) {
    sparql::Executor exec(&g);
    exec.set_use_dp(true);  // planner v2, whose merge steps stream PSO
    QueryContext ctx;
    ctx.set_tracer(tracer);
    exec.set_query_context(ctx);
    auto r = exec.Execute(parsed.value());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return exec.stats();
  };
  ASSERT_FALSE(g.secondary_indexes_built());
  auto first = std::make_shared<Tracer>();
  const sparql::ExecStats stats = run(first);
  EXPECT_TRUE(g.secondary_indexes_built());
  ASSERT_GT(stats.merge_joins, 0u);
  ASSERT_TRUE(first->HasSpan("index-build-secondary"));
  const auto spans = first->FinishedSpans();
  for (const auto& span : spans) {
    if (span.name != "index-build-secondary") continue;
    // Inside the timed index build, outside every join span.
    EXPECT_GE(stats.index_build_ms + 0.01, span.dur_us / 1000.0);
    for (const auto& parent : spans) {
      if (parent.id == span.parent) EXPECT_NE(parent.name, "bgp-join");
    }
  }
  EXPECT_GT(stats.index_build_ms, 0.0);

  auto second = std::make_shared<Tracer>();
  run(second);
  EXPECT_TRUE(second->HasSpan("bgp-join"));
  EXPECT_FALSE(second->HasSpan("index-build-secondary"));
}

TEST(TraceCoverageTest, ResultsByteIdenticalWithTracingOnAndOff) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 500;
  workload::GenerateProductKg(&g, opt);
  const std::string query =
      "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
      "SELECT ?m (AVG(?p) AS ?avg) WHERE { ?l ex:manufacturer ?m . "
      "?l ex:price ?p . } GROUP BY ?m ORDER BY ?m";
  auto parsed = sparql::ParseQuery(query);
  ASSERT_TRUE(parsed.ok());

  auto run = [&](bool traced, int threads) {
    sparql::Executor exec(&g);
    exec.set_thread_count(threads);
    if (traced) {
      QueryContext ctx;
      ctx.set_tracer(std::make_shared<Tracer>());
      exec.set_query_context(ctx);
    }
    auto r = exec.Execute(parsed.value());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().ToTsv() : std::string();
  };

  const std::string baseline = run(false, 1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run(true, 1), baseline);
  EXPECT_EQ(run(false, 4), baseline);
  EXPECT_EQ(run(true, 4), baseline);
}

// ---------------------------------------------------------------------------
// Abort path: a cancellation tripping mid-join must still yield a
// well-formed trace whose aborted span is closed and named like the
// abort stage.

TEST(AbortTraceTest, MidJoinCancellationClosesTheAbortedSpan) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 1000;  // build range comfortably > one 512-row check
  workload::GenerateProductKg(&g, opt);
  g.Freeze();
  const std::string kEx = workload::kExampleNs;

  // Pairs sharing a manufacturer: every probe row is keyed on ?m, and the
  // build side is far cheaper than the probes, so adaptive hashes.
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

  auto tracer = std::make_shared<Tracer>();
  QueryContext ctx;
  ctx.set_tracer(tracer);
  ctx.CancelAfterChecks(4);  // deterministically inside the hash build
  sparql::ExecStats stats;
  sparql::JoinOptions jopts;
  jopts.stats = &stats;
  jopts.ctx = &ctx;
  std::vector<sparql::Binding> rows = {
      sparql::Binding(vars.size(), rdf::kNoTermId)};
  Status st = sparql::JoinBgp(g, patterns, vars.size(), /*reorder=*/false,
                              jopts, &rows);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  ASSERT_STREQ(ctx.trip_stage(), "hash-build");
  ASSERT_EQ(stats.join_strategy, (std::vector<char>{'N', 'H'}));
  EXPECT_EQ(stats.rows_scanned[1], 512u);

  // The span carrying the abort stage's name was closed by RAII unwind.
  EXPECT_TRUE(tracer->HasSpan(ctx.trip_stage()));
  EXPECT_TRUE(tracer->HasSpan("bgp-join"));
  // Every recorded span is complete (an "X" event with a duration), so the
  // whole trace still renders.
  for (const auto& s : tracer->FinishedSpans()) {
    EXPECT_GE(s.dur_us, 0.0) << s.name;
  }
  EXPECT_TRUE(JsonChecker::Valid(tracer->ToChromeJson()));
}

TEST(AbortTraceTest, ExecutorAbortStageMatchesATracedSpan) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 500;
  workload::GenerateProductKg(&g, opt);
  const std::string query =
      "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
      "SELECT ?m (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ?m . } "
      "GROUP BY ?m";
  auto parsed = sparql::ParseQuery(query);
  ASSERT_TRUE(parsed.ok());

  // Probe: count the deterministic checks of a clean run, then replay and
  // trip on the final check — the group-aggregate stage for this query.
  QueryContext probe;
  {
    sparql::Executor exec(&g);
    exec.set_thread_count(4);
    exec.set_query_context(probe);
    ASSERT_TRUE(exec.Execute(parsed.value()).ok());
  }
  ASSERT_GT(probe.checks_performed(), 1);

  auto tracer = std::make_shared<Tracer>();
  QueryContext ctx;
  ctx.set_tracer(tracer);
  ctx.CancelAfterChecks(probe.checks_performed());
  sparql::Executor exec(&g);
  exec.set_thread_count(4);
  exec.set_query_context(ctx);
  auto r = exec.Execute(parsed.value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(exec.stats().aborted);
  ASSERT_FALSE(exec.stats().abort_stage.empty());
  EXPECT_TRUE(tracer->HasSpan(exec.stats().abort_stage))
      << "no span named " << exec.stats().abort_stage;
  EXPECT_TRUE(JsonChecker::Valid(tracer->ToChromeJson()));
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, CounterShardsSumAcrossThreads) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("rdfa_test_shard_total");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, HistogramBucketsObserveAndSum) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);   // bucket le=1
  h.Observe(1.0);   // le=1 (inclusive upper bound)
  h.Observe(5.0);   // le=10
  h.Observe(500.0); // +Inf overflow
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 506.5);
  std::vector<uint64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(MetricsTest, PrometheusTextExposesAllMetricKinds) {
  MetricsRegistry reg;
  reg.GetCounter("rdfa_test_queries_total", "Total queries").Increment(3);
  reg.GetGauge("rdfa_test_queue_depth", "Waiters").Set(2);
  Histogram& h =
      reg.GetHistogram("rdfa_test_latency_ms", {1.0, 10.0}, "Latency");
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);

  std::string text = reg.PrometheusText();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find("# HELP rdfa_test_queries_total Total queries"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rdfa_test_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rdfa_test_queries_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rdfa_test_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rdfa_test_latency_ms histogram"),
            std::string::npos);
  // Cumulative buckets: le="1" holds 1, le="10" holds 2, +Inf holds all 3.
  EXPECT_NE(text.find("rdfa_test_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rdfa_test_latency_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rdfa_test_latency_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rdfa_test_latency_ms_count 3"), std::string::npos);

  // Every non-comment line is "name value" or "name{labels} value".
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0]))) << line;
  }
  EXPECT_TRUE(JsonChecker::Valid(reg.ToJson()));
}

TEST(MetricsTest, GlobalRegistryExpositionStaysWellFormed) {
  // Feed the global registry through the engine path, then check that the
  // exposition formats hold over its real state.
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  auto parsed = sparql::ParseQuery(
      "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
      "SELECT ?l ?m WHERE { ?l ex:manufacturer ?m . }");
  ASSERT_TRUE(parsed.ok());
  sparql::Executor exec(&g);
  ASSERT_TRUE(exec.Execute(parsed.value()).ok());
  std::string text = MetricsRegistry::Global().PrometheusText();
  EXPECT_TRUE(JsonChecker::Valid(MetricsRegistry::Global().ToJson()));
  for (const char* needle :
       {"rdfa_queries_total", "rdfa_query_latency_ms"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(MetricsTickTest, LatencyHistogramCountEqualsQueriesExecuted) {
  MetricsRegistry::Global().ResetForTest();
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  auto parsed = sparql::ParseQuery(
      "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
      "SELECT ?l ?m WHERE { ?l ex:manufacturer ?m . }");
  ASSERT_TRUE(parsed.ok());
  constexpr int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    sparql::Executor exec(&g);
    ASSERT_TRUE(exec.Execute(parsed.value()).ok());
  }
  const Counter* total =
      MetricsRegistry::Global().FindCounter("rdfa_queries_total");
  const Histogram* latency =
      MetricsRegistry::Global().FindHistogram("rdfa_query_latency_ms");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(total->Value(), static_cast<uint64_t>(kQueries));
  EXPECT_EQ(latency->Count(), static_cast<uint64_t>(kQueries));
}

TEST(MetricsTickTest, CancelledAndTimedOutTickExactlyOncePerQuery) {
  MetricsRegistry::Global().ResetForTest();
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 300;
  workload::GenerateProductKg(&g, opt);
  auto parsed = sparql::ParseQuery(
      "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
      "SELECT ?m (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ?m . } "
      "GROUP BY ?m");
  ASSERT_TRUE(parsed.ok());

  // Query 1: clean. Query 2: cancelled mid-run (check-count replay).
  // Query 3: timed out at admission (zero budget fast-fail).
  QueryContext probe;
  {
    sparql::Executor exec(&g);
    exec.set_query_context(probe);
    ASSERT_TRUE(exec.Execute(parsed.value()).ok());
  }
  {
    QueryContext ctx;
    ctx.CancelAfterChecks(probe.checks_performed());
    sparql::Executor exec(&g);
    exec.set_query_context(ctx);
    auto r = exec.Execute(parsed.value());
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  {
    sparql::Executor exec(&g);
    exec.set_query_context(QueryContext::WithDeadlineMs(0));
    auto r = exec.Execute(parsed.value());
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }

  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.FindCounter("rdfa_queries_total")->Value(), 3u);
  EXPECT_EQ(reg.FindCounter("rdfa_queries_cancelled_total")->Value(), 1u);
  EXPECT_EQ(reg.FindCounter("rdfa_queries_timed_out_total")->Value(), 1u);
  EXPECT_EQ(reg.FindHistogram("rdfa_query_latency_ms")->Count(), 3u);
}

TEST(MetricsTickTest, CacheCountersTickExactlyOncePerEvent) {
  // Every cache event — answer hit/miss, plan hit/miss, generation
  // invalidation, capacity eviction — ticks its exported counter exactly
  // once, and all the series appear in the Prometheus exposition.
  MetricsRegistry::Global().ResetForTest();
  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  endpoint::SimulatedEndpoint ep(&g, endpoint::LatencyProfile::Local(),
                                 /*enable_cache=*/true);
  CacheOptions opts;
  opts.max_entries = 1;
  opts.shards = 1;
  ep.set_cache_options(opts);

  const std::string other =
      "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
      "SELECT ?i ?q WHERE { ?i inv:inQuantity ?q . FILTER(?q > 5) }";
  // miss, hit, then a second key evicts the first (capacity 1).
  ASSERT_TRUE(ep.Query(kInvQuery).ok());
  ASSERT_TRUE(ep.Query(kInvQuery).ok());
  ASSERT_TRUE(ep.Query(other).ok());
  // Mutation, then re-query of the resident key: one invalidation.
  ASSERT_TRUE(sparql::ExecuteUpdateString(
                  &g,
                  "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
                  "INSERT DATA { inv:i97 inv:inQuantity 50 . }")
                  .ok());
  ASSERT_TRUE(ep.Query(other).ok());

  MetricsRegistry& reg = MetricsRegistry::Global();
  const Counter* hits = reg.FindCounter("rdfa_endpoint_cache_hits_total");
  const Counter* misses = reg.FindCounter("rdfa_endpoint_cache_misses_total");
  const Counter* evictions =
      reg.FindCounter("rdfa_endpoint_cache_evictions_total");
  const Counter* invalidations =
      reg.FindCounter("rdfa_endpoint_cache_invalidations_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(evictions, nullptr);
  ASSERT_NE(invalidations, nullptr);
  EXPECT_EQ(hits->Value(), 1u);
  EXPECT_EQ(misses->Value(), 3u);  // first kInvQuery, first `other`, stale re-query
  EXPECT_EQ(evictions->Value(), 1u);
  EXPECT_EQ(invalidations->Value(), 1u);

  // The registry counters agree with the endpoint's own stats view.
  CacheStats stats = ep.answer_cache_stats();
  EXPECT_EQ(stats.hits, hits->Value());
  EXPECT_EQ(stats.misses, misses->Value());
  EXPECT_EQ(stats.evictions, evictions->Value());
  EXPECT_EQ(stats.invalidations, invalidations->Value());

  std::string text = reg.PrometheusText();
  for (const char* needle :
       {"rdfa_endpoint_cache_hits_total", "rdfa_endpoint_cache_misses_total",
        "rdfa_endpoint_cache_evictions_total",
        "rdfa_endpoint_cache_invalidations_total",
        "rdfa_plan_cache_hits_total", "rdfa_plan_cache_misses_total"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(MetricsTickTest, PlanCacheCountersTickExactlyOncePerEvent) {
  MetricsRegistry::Global().ResetForTest();
  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  endpoint::SimulatedEndpoint ep(&g, endpoint::LatencyProfile::Local(),
                                 /*enable_cache=*/true);
  // A 1-byte answer budget forces every repeat onto the plan-cache path
  // (answers are never resident, plans are).
  CacheOptions opts;
  opts.max_bytes = 1;
  opts.shards = 1;
  ep.set_cache_options(opts);

  auto first = ep.Query(kInvQuery);   // plan miss
  auto second = ep.Query(kInvQuery);  // plan hit
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(second.value().plan_cache_hit);

  MetricsRegistry& reg = MetricsRegistry::Global();
  const Counter* hits = reg.FindCounter("rdfa_plan_cache_hits_total");
  const Counter* misses = reg.FindCounter("rdfa_plan_cache_misses_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->Value(), 1u);
  EXPECT_EQ(misses->Value(), 1u);
  EXPECT_EQ(ep.plan_cache_stats().hits, 1u);
  EXPECT_EQ(ep.plan_cache_stats().misses, 1u);
}

TEST(MetricsTickTest, RollupCacheCountersShareTheProtocol) {
  MetricsRegistry::Global().ResetForTest();
  analytics::RollupCache cache;
  sparql::ResultTable table({"brand", "sales"});
  for (int i = 0; i < 6; ++i) {
    table.AddRow({Term::Iri("urn:b" + std::to_string(i % 2)),
                  Term::Integer(i)});
  }
  analytics::AnswerFrame frame(std::move(table));
  auto miss = cache.RollUp("src", 1, frame, {"brand"}, "sales",
                           hifun::AggOp::kSum);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  auto hit = cache.RollUp("src", 1, frame, {"brand"}, "sales",
                          hifun::AggOp::kSum);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().table().ToTsv(), miss.value().table().ToTsv());
  // A newer generation invalidates the memo.
  auto inval = cache.RollUp("src", 2, frame, {"brand"}, "sales",
                            hifun::AggOp::kSum);
  ASSERT_TRUE(inval.ok());
  EXPECT_EQ(inval.value().table().ToTsv(), miss.value().table().ToTsv());

  MetricsRegistry& reg = MetricsRegistry::Global();
  ASSERT_NE(reg.FindCounter("rdfa_rollup_cache_hits_total"), nullptr);
  EXPECT_EQ(reg.FindCounter("rdfa_rollup_cache_hits_total")->Value(), 1u);
  EXPECT_EQ(reg.FindCounter("rdfa_rollup_cache_misses_total")->Value(), 2u);
  EXPECT_EQ(
      reg.FindCounter("rdfa_rollup_cache_invalidations_total")->Value(), 1u);
}

// ---------------------------------------------------------------------------
// Structured query log

TEST(QueryLogTest, HashIsStableAndContentSensitive) {
  EXPECT_EQ(HashQueryText("SELECT ?x"), HashQueryText("SELECT ?x"));
  EXPECT_NE(HashQueryText("SELECT ?x"), HashQueryText("SELECT ?y"));
  EXPECT_NE(HashQueryText(""), HashQueryText(" "));
}

TEST(QueryLogTest, FormatProducesOneWellFormedJsonLine) {
  QueryLogRecord rec;
  rec.query_hash = HashQueryText(kInvQuery);
  rec.query_head = "SELECT \"quoted\"\nnext line";  // must be escaped
  rec.outcome = "ok";
  rec.total_ms = 1.5;
  rec.queued_ms = 0.25;
  rec.rows = 3;
  rec.cache_hit = false;
  rec.exec_stats_json = "{\"threads\":1}";
  rec.trace_file = "/tmp/q-0.json";
  std::string line = FormatQueryLogLine(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "one line per record";
  EXPECT_TRUE(JsonChecker::Valid(line)) << line;
  EXPECT_NE(line.find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(line.find("\"exec_stats\":{\"threads\":1}"), std::string::npos);
}

TEST(QueryLogTest, EndpointWritesTraceFilesAndStructuredLog) {
  namespace fs = std::filesystem;
  const std::string dir = test::UniqueTempPath("trace");
  const std::string log_path = test::UniqueTempPath("queries.jsonl");
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::remove(log_path, ec);

  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  endpoint::SimulatedEndpoint ep(&g, endpoint::LatencyProfile::Local());
  ep.set_trace_dir(dir);
  ep.set_query_log_path(log_path);

  ASSERT_TRUE(ep.Query(kInvQuery).ok());
  // A parse failure must still produce a log line (outcome "error").
  EXPECT_FALSE(ep.Query("SELECT FROM NOWHERE").ok());

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(JsonChecker::Valid(l)) << l;
  }
  EXPECT_NE(lines[0].find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\":\"error\""), std::string::npos);

  // The served query produced a trace file; its content is a valid Chrome
  // trace covering the endpoint's own admission span.
  size_t trace_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++trace_files;
    std::ifstream tf(entry.path());
    std::string content((std::istreambuf_iterator<char>(tf)),
                        std::istreambuf_iterator<char>());
    EXPECT_TRUE(JsonChecker::Valid(content)) << entry.path();
    EXPECT_NE(content.find("admission-queue"), std::string::npos);
  }
  EXPECT_GE(trace_files, 1u);

  // Endpoint-side queue stats surfaced in Stats() for the bench summaries.
  endpoint::EndpointStats stats = ep.Stats();
  EXPECT_GE(stats.p50_queued_ms, 0.0);
  EXPECT_GE(stats.p99_queued_ms, stats.p50_queued_ms);

  fs::remove_all(dir, ec);
  fs::remove(log_path, ec);
}

TEST(QueryLogTest, EndpointMetricsUseDistinctNamesFromEngineMetrics) {
  // A query shed at admission never reaches the Executor: it must tick the
  // endpoint counter exactly once and the engine counters not at all.
  MetricsRegistry::Global().ResetForTest();
  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  endpoint::SimulatedEndpoint ep(&g, endpoint::LatencyProfile::Local());
  endpoint::AdmissionOptions opts;
  opts.max_in_flight = 1;
  opts.max_queue = 0;
  ep.set_admission(opts);
  auto held = ep.Admit();
  ASSERT_TRUE(held.ok());
  auto resp = ep.Query(kInvQuery);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.value().status.code(), StatusCode::kResourceExhausted);

  MetricsRegistry& reg = MetricsRegistry::Global();
  const Counter* shed = reg.FindCounter("rdfa_endpoint_shed_total");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->Value(), 1u);
  const Counter* engine_total = reg.FindCounter("rdfa_queries_total");
  if (engine_total != nullptr) {
    EXPECT_EQ(engine_total->Value(), 0u);
  }
}

// ---------------------------------------------------------------------------
// bench_util satellites

TEST(PercentileTest, EmptySampleReturnsZero) {
  EXPECT_EQ(bench::Percentile({}, 0.5), 0.0);
  EXPECT_EQ(bench::Percentile({}, 0.99), 0.0);
}

TEST(PercentileTest, SingleElementReturnsItForEveryQuantile) {
  EXPECT_EQ(bench::Percentile({7.5}, 0.0), 7.5);
  EXPECT_EQ(bench::Percentile({7.5}, 0.5), 7.5);
  EXPECT_EQ(bench::Percentile({7.5}, 0.99), 7.5);
}

TEST(PercentileTest, OddAndEvenSizesUseNearestRank) {
  // Odd: 5 sorted elements, p50 is the middle one.
  EXPECT_EQ(bench::Percentile({5, 1, 3, 2, 4}, 0.5), 3.0);
  EXPECT_EQ(bench::Percentile({5, 1, 3, 2, 4}, 0.0), 1.0);
  EXPECT_EQ(bench::Percentile({5, 1, 3, 2, 4}, 1.0), 5.0);
  // Even: 4 elements, nearest-rank p50 = element at floor(3 * 0.5) = idx 1.
  EXPECT_EQ(bench::Percentile({4, 1, 3, 2}, 0.5), 2.0);
  EXPECT_EQ(bench::Percentile({4, 1, 3, 2}, 1.0), 4.0);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonEscapeTest, ExecStatsToJsonSurvivesHostileStrings) {
  sparql::ExecStats stats;
  stats.aborted = true;
  stats.abort_stage = "stage\"with\\quotes\nand newline";
  stats.join_strategy = {'H', '"'};
  stats.rows_scanned = {1, 2};
  std::string json = stats.ToJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
}

TEST(JsonEscapeTest, BenchJsonObjectEscapesStringValues) {
  bench::JsonObject obj;
  obj.AddString("q", "SELECT \"x\"\nFROM");
  obj.AddNumber("ms", 1.5);
  obj.AddBool("ok", true);
  std::string json = obj.Render();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
}

TEST(TraceSinkTest, DisabledSinkIsInertEnabledSinkWritesFiles) {
  bench::TraceSink sink;
  EXPECT_FALSE(sink.enabled());
  EXPECT_EQ(sink.StartRun(), nullptr);
  EXPECT_EQ(sink.FinishRun(nullptr, "x"), "");

  const std::string dir = test::UniqueTempPath("sink");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  sink.set_dir(dir);
  auto tracer = sink.StartRun();
  ASSERT_NE(tracer, nullptr);
  { TraceSpan span(tracer.get(), "step"); }
  std::string path = sink.FinishRun(tracer.get(), "run");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_TRUE(JsonChecker::Valid(content));
  EXPECT_NE(content.find("\"step\""), std::string::npos);
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Labeled metric families: Prometheus escaping and HELP/TYPE exposition.

size_t CountOccurrences(const std::string& haystack, const std::string& pin) {
  size_t n = 0;
  for (size_t pos = haystack.find(pin); pos != std::string::npos;
       pos = haystack.find(pin, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(MetricsLabelTest, EscapeLabelValueHandlesAllSpecials) {
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(MetricsRegistry::LabeledName("fam", "stage", "bgp-join"),
            "fam{stage=\"bgp-join\"}");
}

TEST(MetricsLabelTest, LabeledFamiliesEmitHelpAndTypeOnce) {
  MetricsRegistry reg;
  reg.GetGaugeLabeled("test_stage_gauge", "stage", "parse",
                      "queries per stage")
      .Set(2);
  reg.GetGaugeLabeled("test_stage_gauge", "stage", "bgp-join",
                      "queries per stage")
      .Set(3);
  reg.GetCounterLabeled("test_kill_total", "stage", "he said \"now\"\n")
      .Increment(7);

  const std::string text = reg.PrometheusText();
  // One HELP and one TYPE line per *family*, not per series.
  EXPECT_EQ(CountOccurrences(text, "# HELP test_stage_gauge "), 1u) << text;
  EXPECT_EQ(CountOccurrences(text, "# TYPE test_stage_gauge gauge"), 1u)
      << text;
  EXPECT_EQ(CountOccurrences(text, "# TYPE test_kill_total counter"), 1u)
      << text;
  EXPECT_NE(text.find("queries per stage"), std::string::npos);
  // Both series render with their label, values intact.
  EXPECT_NE(text.find("test_stage_gauge{stage=\"parse\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_stage_gauge{stage=\"bgp-join\"} 3"),
            std::string::npos)
      << text;
  // The hostile label value is escaped, keeping the exposition line-oriented.
  EXPECT_NE(text.find("test_kill_total{stage=\"he said \\\"now\\\"\\n\"} 7"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find('\n', text.find("test_kill_total{")),
            text.find(" 7", text.find("test_kill_total{")) + 2);
}

// ---------------------------------------------------------------------------
// ProfileJson: the flat span list rebuilds into the operator tree.

TEST(TracerTest, ProfileJsonNestsSpansByContainment) {
  Tracer tracer;
  {
    TraceSpan execute(&tracer, "execute");
    {
      TraceSpan plan(&tracer, "plan");
      plan.Arg("patterns", static_cast<int64_t>(3));
    }
    {
      TraceSpan join(&tracer, "bgp-join");
      { TraceSpan seek(&tracer, "sieve-seek"); }
    }
  }
  { TraceSpan tail(&tracer, "rollup-cache"); }

  const std::string profile = tracer.ProfileJson();
  ASSERT_TRUE(JsonChecker::Valid(profile)) << profile;
  // Two roots, creation order: execute first, rollup-cache second.
  const size_t exec_pos = profile.find("\"op\":\"execute\"");
  const size_t tail_pos = profile.find("\"op\":\"rollup-cache\"");
  ASSERT_NE(exec_pos, std::string::npos) << profile;
  ASSERT_NE(tail_pos, std::string::npos) << profile;
  EXPECT_LT(exec_pos, tail_pos);
  // plan and bgp-join sit inside execute's children array, siblings in
  // creation order; sieve-seek nests one level further down.
  const size_t children_pos = profile.find("\"children\":", exec_pos);
  ASSERT_NE(children_pos, std::string::npos) << profile;
  const size_t plan_pos = profile.find("\"op\":\"plan\"");
  const size_t join_pos = profile.find("\"op\":\"bgp-join\"");
  const size_t seek_pos = profile.find("\"op\":\"sieve-seek\"");
  ASSERT_NE(plan_pos, std::string::npos);
  ASSERT_NE(join_pos, std::string::npos);
  ASSERT_NE(seek_pos, std::string::npos);
  EXPECT_LT(children_pos, plan_pos);
  EXPECT_LT(plan_pos, join_pos);
  EXPECT_LT(join_pos, seek_pos);
  EXPECT_LT(seek_pos, tail_pos);
  // Span args ride along on the profile node.
  EXPECT_NE(profile.find("\"patterns\":3"), std::string::npos) << profile;
  // Every node carries a duration.
  EXPECT_GE(CountOccurrences(profile, "\"ms\":"), 5u);
}

// ---------------------------------------------------------------------------
// The live query registry: registration, sampling, kill, concurrency.

TEST(QueryRegistryTest, RegisterSnapshotProgressAndRelease) {
  QueryRegistry& reg = QueryRegistry::Global();
  QueryContext ctx = QueryContext::WithDeadlineMs(3600 * 1000.0);
  const std::string text = "SELECT ?s WHERE { ?s ?p ?o }";
  int64_t id = -1;
  {
    QueryRegistry::Handle h =
        reg.Register(&ctx, text, HashQueryText(text), /*snapshot_epoch=*/42);
    id = h.id();
    ASSERT_GE(id, 0);

    // The context copy now publishes stage + rows into the slot.
    QueryContext copy = ctx;
    ASSERT_TRUE(copy.Check("bgp-join").ok());
    copy.AddProgressRows(123);

    bool found = false;
    for (const InflightQuery& q : reg.Snapshot()) {
      if (q.id != id) continue;
      found = true;
      EXPECT_EQ(q.query_hash, HashQueryText(text));
      EXPECT_EQ(q.snapshot_epoch, 42u);
      EXPECT_EQ(q.head.substr(0, 6), "SELECT");
      ASSERT_NE(q.stage, nullptr);
      EXPECT_STREQ(q.stage, "bgp-join");
      EXPECT_EQ(q.rows, 123u);
      EXPECT_GE(q.elapsed_ms, 0.0);
      // An armed deadline samples as a finite remaining budget.
      EXPECT_TRUE(std::isfinite(q.deadline_remaining_ms));
      EXPECT_GT(q.deadline_remaining_ms, 0.0);
    }
    EXPECT_TRUE(found);

    // A second, deadline-less query samples as infinite remaining budget.
    QueryContext free_ctx;
    QueryRegistry::Handle h2 = reg.Register(&free_ctx, "ASK { ?s ?p ?o }",
                                            /*query_hash=*/1, 0);
    for (const InflightQuery& q : reg.Snapshot()) {
      if (q.id == h2.id()) {
        EXPECT_FALSE(std::isfinite(q.deadline_remaining_ms));
      }
    }
  }
  // Both handles released: the ids are gone from the sample.
  for (const InflightQuery& q : reg.Snapshot()) {
    EXPECT_NE(q.id, id);
  }
}

TEST(QueryRegistryTest, KillCancelsTheRegisteredContext) {
  QueryRegistry& reg = QueryRegistry::Global();
  QueryContext ctx;
  QueryRegistry::Handle h =
      reg.Register(&ctx, "SELECT * WHERE { ?s ?p ?o }", 7, 0);
  ASSERT_GE(h.id(), 0);
  ASSERT_TRUE(ctx.Check("execute").ok());

  EXPECT_FALSE(reg.Kill(h.id() + 100000));  // unknown id
  EXPECT_TRUE(reg.Kill(h.id()));
  // The query's own context copies observe the cancellation.
  Status s = ctx.Check("execute");
  EXPECT_FALSE(s.ok());
}

TEST(QueryRegistryTest, StageGaugesTrackAndDrainToZero) {
  MetricsRegistry::Global().ResetForTest();
  QueryRegistry& reg = QueryRegistry::Global();
  QueryContext ctx;
  {
    QueryRegistry::Handle h = reg.Register(&ctx, "SELECT 1", 9, 0);
    ASSERT_TRUE(ctx.Check("hash-build").ok());
    reg.UpdateStageGauges();
    const std::string text = MetricsRegistry::Global().PrometheusText();
    EXPECT_NE(
        text.find("rdfa_inflight_queries_by_stage{stage=\"hash-build\"} 1"),
        std::string::npos)
        << text;
  }
  reg.UpdateStageGauges();
  const std::string text = MetricsRegistry::Global().PrometheusText();
  // The emptied stage keeps its series at 0 rather than disappearing.
  EXPECT_NE(
      text.find("rdfa_inflight_queries_by_stage{stage=\"hash-build\"} 0"),
      std::string::npos)
      << text;
}

// TSan target: writers registering/unregistering, a query thread hammering
// stage/rows, a sampler reading lock-free, and kills landing mid-flight.
TEST(QueryRegistryTest, ConcurrentRegisterSampleKill) {
  QueryRegistry& reg = QueryRegistry::Global();
  constexpr int kWriters = 4;
  constexpr int kQueriesPerWriter = 50;
  std::atomic<bool> stop{false};

  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const InflightQuery& q : reg.Snapshot()) {
        // Dereference everything a `ps` implementation would.
        ASSERT_GE(q.id, 0);
        if (q.stage != nullptr) {
          ASSERT_GT(std::string(q.stage).size(), 0u);
        }
      }
      reg.UpdateStageGauges();
    }
  });
  std::thread killer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto snap = reg.Snapshot();
      if (!snap.empty()) reg.Kill(snap[snap.size() / 2].id);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg, w] {
      for (int i = 0; i < kQueriesPerWriter; ++i) {
        QueryContext ctx;
        QueryRegistry::Handle h = reg.Register(
            &ctx, "SELECT ?x WHERE { ?x ?y ?z }",
            static_cast<uint64_t>(w * 1000 + i), static_cast<uint64_t>(i));
        QueryContext copy = ctx;
        for (int step = 0; step < 20; ++step) {
          // Killed queries unwind exactly like production joins do.
          if (!copy.Check(step % 2 == 0 ? "bgp-join" : "group-aggregate")
                   .ok()) {
            break;
          }
          copy.AddProgressRows(17);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  sampler.join();
  killer.join();

  // Every handle released: the registry drains empty.
  EXPECT_TRUE(reg.Snapshot().empty());
}

// ---------------------------------------------------------------------------
// Slow-query capture ring.

TEST(SlowQueryCaptureTest, RingNeverGrowsPastMaxFiles) {
  namespace fs = std::filesystem;
  const std::string dir = test::UniqueTempPath("slow_ring");
  std::error_code ec;
  fs::remove_all(dir, ec);

  SlowQueryCapturer cap(dir, /*threshold_ms=*/1.0, /*max_files=*/3);
  ASSERT_TRUE(cap.enabled());
  EXPECT_EQ(cap.MaybeCapture(0.5, "{\"fast\":true}"), "");  // below threshold
  for (int i = 0; i < 8; ++i) {
    const std::string path =
        cap.MaybeCapture(5.0, "{\"seq\":" + std::to_string(i) + "}");
    ASSERT_FALSE(path.empty());
  }
  EXPECT_EQ(cap.captures(), 8);

  size_t files = 0;
  bool saw_latest = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    std::ifstream in(entry.path());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_TRUE(JsonChecker::Valid(content)) << entry.path();
    if (content == "{\"seq\":7}") saw_latest = true;
  }
  EXPECT_EQ(files, 3u);  // seq 5,6,7 survive in slots 2,0,1
  EXPECT_TRUE(saw_latest);

  SlowQueryCapturer off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.MaybeCapture(1e9, "{}"), "");
  fs::remove_all(dir, ec);
}

TEST(SlowQueryCaptureTest, EndpointCapturesForensicRecordWithProfile) {
  namespace fs = std::filesystem;
  const std::string dir = test::UniqueTempPath("slow_ep");
  std::error_code ec;
  fs::remove_all(dir, ec);

  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  endpoint::SimulatedEndpoint ep(&g, endpoint::LatencyProfile::Local());
  // Threshold 0: every query is "slow", so one query suffices.
  ep.set_slow_query_capture(dir, /*threshold_ms=*/0.0, /*max_files=*/4);
  ASSERT_TRUE(ep.Query(kInvQuery).ok());
  ASSERT_NE(ep.slow_query_capturer(), nullptr);
  EXPECT_GE(ep.slow_query_capturer()->captures(), 1);

  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    std::ifstream in(entry.path());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    ASSERT_TRUE(JsonChecker::Valid(content)) << entry.path();
    // The capture is a full query-log record: outcome, stats, the new
    // planner/storage markers, and the embedded operator profile.
    EXPECT_NE(content.find("\"outcome\":\"ok\""), std::string::npos);
    EXPECT_NE(content.find("\"storage_backend\":\"heap\""),
              std::string::npos);
    EXPECT_NE(content.find("\"join_strategies\":"), std::string::npos);
    EXPECT_NE(content.find("\"profile\":"), std::string::npos);
    EXPECT_NE(content.find("\"op\":\"execute\""), std::string::npos);
    EXPECT_NE(content.find("\"op\":\"bgp-join\""), std::string::npos);
  }
  EXPECT_GE(files, 1u);
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE across join strategies and storage backends.

struct ExplainFixture {
  std::unique_ptr<rdf::Graph> heap;
  std::unique_ptr<rdf::Graph> mapped;
  std::string snapshot_path;

  ExplainFixture() {
    heap = std::make_unique<rdf::Graph>();
    workload::ProductKgOptions opt;
    opt.laptops = 120;
    opt.seed = 7;
    workload::GenerateProductKg(heap.get(), opt);
    snapshot_path = test::UniqueTempPath("explain.rdfa");
    EXPECT_TRUE(rdf::SaveBinaryFile(*heap, snapshot_path).ok());
    auto opened = rdf::OpenMappedSnapshot(snapshot_path);
    EXPECT_TRUE(opened.ok());
    mapped = std::move(opened.value());
  }
  ~ExplainFixture() { std::remove(snapshot_path.c_str()); }
};

constexpr char kProductPfx[] =
    "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
constexpr char kJoinQuery[] =
    "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . "
    "?l ex:price ?p }";

TEST(ExplainTest, SchemaHoldsAcrossStrategiesAndBackends) {
  ExplainFixture fx;
  auto parsed = sparql::ParseQuery(kProductPfx + std::string(kJoinQuery));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  const sparql::JoinStrategy strategies[] = {
      sparql::JoinStrategy::kAdaptive, sparql::JoinStrategy::kNestedLoop};
  const char* strategy_names[] = {"adaptive", "nested-loop"};

  struct Backend {
    rdf::Graph* g;
    const char* name;
  } backends[] = {{fx.heap.get(), "heap"}, {fx.mapped.get(), "mmap"}};

  for (const Backend& b : backends) {
    for (size_t i = 0; i < 2; ++i) {
      sparql::Executor exec(b.g);
      exec.set_join_strategy(strategies[i]);
      const std::string plan = exec.ExplainJson(parsed.value());
      ASSERT_TRUE(JsonChecker::Valid(plan)) << plan;
      EXPECT_NE(plan.find("\"form\":\"select\""), std::string::npos) << plan;
      EXPECT_NE(plan.find(std::string("\"strategy\":\"") +
                          strategy_names[i] + "\""),
                std::string::npos)
          << plan;
      EXPECT_NE(plan.find(std::string("\"backend\":\"") + b.name + "\""),
                std::string::npos)
          << plan;
      EXPECT_NE(plan.find("\"use_dp\":"), std::string::npos) << plan;
      EXPECT_NE(plan.find("\"threads\":"), std::string::npos) << plan;
      EXPECT_NE(plan.find("\"bgps\":["), std::string::npos) << plan;
      // Three patterns → three plan steps, each annotated.
      EXPECT_EQ(CountOccurrences(plan, "\"pattern\":"), 3u) << plan;
      EXPECT_EQ(CountOccurrences(plan, "\"perm\":"), 3u) << plan;
      EXPECT_EQ(CountOccurrences(plan, "\"est_rows\":"), 3u) << plan;
    }
  }

  // EXPLAIN plans without executing: a fresh executor's stats stay empty.
  sparql::Executor exec(fx.heap.get());
  exec.ExplainJson(parsed.value());
  EXPECT_EQ(exec.stats().total_ms, 0.0);
}

TEST(ExplainTest, AnalyzeProfileReconcilesWithExecStats) {
  ExplainFixture fx;
  auto parsed = sparql::ParseQuery(kProductPfx + std::string(kJoinQuery));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  // The two strategies, plus planner v2 (seed scan and merge steps).
  const struct {
    sparql::JoinStrategy strategy;
    bool use_dp;
  } configs[] = {{sparql::JoinStrategy::kAdaptive, false},
                 {sparql::JoinStrategy::kNestedLoop, false},
                 {sparql::JoinStrategy::kAdaptive, true}};

  struct Backend {
    rdf::Graph* g;
    const char* name;
  } backends[] = {{fx.heap.get(), "heap"}, {fx.mapped.get(), "mmap"}};

  // Configs may legitimately emit rows in different orders; the row *set*
  // must agree across every (config, backend) pair, and within one
  // configuration profiling must not change a byte.
  auto sorted_lines = [](const std::string& tsv) {
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < tsv.size()) {
      size_t end = tsv.find('\n', start);
      if (end == std::string::npos) end = tsv.size();
      lines.push_back(tsv.substr(start, end - start));
      start = end + 1;
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };

  std::vector<std::string> reference_rows;
  for (const Backend& b : backends) {
    for (const auto& cfg : configs) {
      // Untraced run = the answer bytes the profiled run must reproduce.
      sparql::Executor plain(b.g);
      plain.set_join_strategy(cfg.strategy);
      plain.set_use_dp(cfg.use_dp);
      auto baseline = plain.Execute(parsed.value());
      ASSERT_TRUE(baseline.ok());
      const std::string baseline_tsv = baseline.value().ToTsv();
      if (reference_rows.empty()) {
        reference_rows = sorted_lines(baseline_tsv);
      } else {
        EXPECT_EQ(sorted_lines(baseline_tsv), reference_rows)
            << "result set diverged on " << b.name;
      }

      auto tracer = std::make_shared<Tracer>();
      sparql::Executor exec(b.g);
      exec.set_join_strategy(cfg.strategy);
      exec.set_use_dp(cfg.use_dp);
      QueryContext ctx;
      ctx.set_tracer(tracer);
      exec.set_query_context(ctx);
      auto table = exec.Execute(parsed.value());
      ASSERT_TRUE(table.ok()) << table.status().message();
      EXPECT_EQ(table.value().ToTsv(), baseline_tsv)
          << "profiling changed the answer bytes on " << b.name;

      // The measured profile and the post-run stats must describe the same
      // execution: a bgp-join step per pattern, consistent strategy letters,
      // and a well-formed nested profile rooted at "execute".
      const sparql::ExecStats& stats = exec.stats();
      EXPECT_EQ(stats.join_strategy.size(), 3u);
      const std::string profile = tracer->ProfileJson();
      ASSERT_TRUE(JsonChecker::Valid(profile)) << profile;
      EXPECT_NE(profile.find("\"op\":\"execute\""), std::string::npos);
      EXPECT_TRUE(tracer->HasSpan("plan"));
      EXPECT_TRUE(tracer->HasSpan("bgp-join"));
      const std::string stats_json = stats.ToJson();
      ASSERT_TRUE(JsonChecker::Valid(stats_json)) << stats_json;
      if (std::string(b.name) == "mmap") {
        EXPECT_TRUE(tracer->HasSpan("mmap-decode"))
            << "mapped execution must account for block decodes";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Storage-layer instrumentation: MVCC commit, WAL replay, mmap decode.

TEST(StorageSpanTest, MvccCommitAndWalReplayEmitSpans) {
  MetricsRegistry::Global().ResetForTest();
  const std::string wal_path = test::UniqueTempPath("wal.log");
  std::remove(wal_path.c_str());

  auto commit_tracer = std::make_shared<Tracer>();
  {
    rdf::MvccGraph::Options opts;
    opts.wal_path = wal_path;
    opts.tracer = commit_tracer;
    auto opened = rdf::MvccGraph::Open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    rdf::MvccGraph& mvcc = *opened.value();
    mvcc.Insert(Term::Iri("urn:s"), Term::Iri("urn:p"), Term::Iri("urn:o"));
    mvcc.Insert(Term::Iri("urn:s2"), Term::Iri("urn:p"), Term::Iri("urn:o2"));
    ASSERT_TRUE(mvcc.Commit().ok());
  }
  EXPECT_TRUE(commit_tracer->HasSpan("mvcc-commit"));
  EXPECT_TRUE(commit_tracer->HasSpan("wal-append"));
  EXPECT_TRUE(commit_tracer->HasSpan("commit-apply"));
  EXPECT_TRUE(commit_tracer->HasSpan("commit-publish"));

  // Commit latency decomposition landed in the histograms...
  const Histogram* append = MetricsRegistry::Global().FindHistogram(
      "rdfa_wal_append_ms");
  ASSERT_NE(append, nullptr);
  EXPECT_GE(append->Count(), 1u);
  const Histogram* apply = MetricsRegistry::Global().FindHistogram(
      "rdfa_mvcc_commit_apply_ms");
  ASSERT_NE(apply, nullptr);
  EXPECT_GE(apply->Count(), 1u);
  // ...and the commit counter ticked.
  const Counter* commits =
      MetricsRegistry::Global().FindCounter("rdfa_mvcc_commits_total");
  ASSERT_NE(commits, nullptr);
  EXPECT_GE(commits->Value(), 1u);

  // Reopening replays the WAL under a "wal-replay" span that reports how
  // many records came back.
  auto replay_tracer = std::make_shared<Tracer>();
  {
    rdf::MvccGraph::Options opts;
    opts.wal_path = wal_path;
    opts.tracer = replay_tracer;
    auto reopened = rdf::MvccGraph::Open(opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    EXPECT_GE(reopened.value()->open_info().replayed_records, 1u);
    EXPECT_EQ(reopened.value()->Snapshot().graph->size(), 2u);
  }
  EXPECT_TRUE(replay_tracer->HasSpan("wal-replay"));
  bool saw_records_arg = false;
  for (const Tracer::SpanRecord& s : replay_tracer->FinishedSpans()) {
    if (s.name != "wal-replay") continue;
    for (const auto& kv : s.args) {
      if (kv.first == "records") saw_records_arg = true;
    }
  }
  EXPECT_TRUE(saw_records_arg);
  std::remove(wal_path.c_str());
}

TEST(StorageSpanTest, PinGaugesTrackSnapshotEpochLag) {
  MetricsRegistry::Global().ResetForTest();
  rdf::MvccGraph mvcc;
  mvcc.Insert(Term::Iri("urn:a"), Term::Iri("urn:p"), Term::Iri("urn:b"));
  ASSERT_TRUE(mvcc.Commit().ok());
  rdf::MvccGraph::Pin old_pin = mvcc.Snapshot();
  mvcc.Insert(Term::Iri("urn:c"), Term::Iri("urn:p"), Term::Iri("urn:d"));
  ASSERT_TRUE(mvcc.Commit().ok());

  // With an old pin outstanding after a newer commit, the lag gauges show a
  // reader holding back GC by one epoch.
  std::string text = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(text.find("rdfa_mvcc_snapshot_pins 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("rdfa_mvcc_epoch_lag 1"), std::string::npos) << text;

  { rdf::MvccGraph::Pin drop = std::move(old_pin); }
  rdf::MvccGraph::Pin fresh = mvcc.Snapshot();
  text = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(text.find("rdfa_mvcc_epoch_lag 0"), std::string::npos) << text;
}

TEST(StorageSpanTest, MappedExecutionEmitsDecodeSpanAndCounters) {
  MetricsRegistry::Global().ResetForTest();
  ExplainFixture fx;
  // The FILTER forces per-binding literal decodes, so the dictionary-lookup
  // counter must move alongside the posting-list key-block decodes.
  auto parsed = sparql::ParseQuery(
      kProductPfx +
      std::string("SELECT ?l ?p WHERE { ?l ex:manufacturer ?m . "
                  "?l ex:price ?p . FILTER(?p > 1200) }"));
  ASSERT_TRUE(parsed.ok());

  auto tracer = std::make_shared<Tracer>();
  sparql::Executor exec(fx.mapped.get());
  QueryContext ctx;
  ctx.set_tracer(tracer);
  exec.set_query_context(ctx);
  ASSERT_TRUE(exec.Execute(parsed.value()).ok());

  ASSERT_TRUE(tracer->HasSpan("mmap-decode"));
  bool saw_args = false;
  for (const Tracer::SpanRecord& s : tracer->FinishedSpans()) {
    if (s.name != "mmap-decode") continue;
    std::vector<std::string> keys;
    for (const auto& kv : s.args) keys.push_back(kv.first);
    EXPECT_NE(std::find(keys.begin(), keys.end(), "key_blocks"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "term_blocks"), keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "dict_lookups"),
              keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "blocks_skipped"),
              keys.end());
    saw_args = true;
  }
  EXPECT_TRUE(saw_args);

  // A lazily-decoded join must have decoded key blocks and looked terms up.
  const Counter* key_blocks = MetricsRegistry::Global().FindCounter(
      "rdfa_mmap_key_blocks_decoded_total");
  ASSERT_NE(key_blocks, nullptr);
  EXPECT_GT(key_blocks->Value(), 0u);
  const Counter* lookups =
      MetricsRegistry::Global().FindCounter("rdfa_mmap_dict_lookups_total");
  ASSERT_NE(lookups, nullptr);
  EXPECT_GT(lookups->Value(), 0u);
}

TEST(StorageSpanTest, DpPlannerEmitsTimingSpan) {
  ExplainFixture fx;
  auto parsed = sparql::ParseQuery(kProductPfx + std::string(kJoinQuery));
  ASSERT_TRUE(parsed.ok());

  auto tracer = std::make_shared<Tracer>();
  sparql::Executor exec(fx.heap.get());
  exec.set_use_dp(true);
  QueryContext ctx;
  ctx.set_tracer(tracer);
  exec.set_query_context(ctx);
  ASSERT_TRUE(exec.Execute(parsed.value()).ok());
  EXPECT_GE(exec.stats().dp_plans, 1u);

  ASSERT_TRUE(tracer->HasSpan("dp-plan"));
  bool saw_states = false;
  for (const Tracer::SpanRecord& s : tracer->FinishedSpans()) {
    if (s.name != "dp-plan") continue;
    for (const auto& kv : s.args) {
      if (kv.first == "states_considered") {
        saw_states = true;
        EXPECT_NE(kv.second, "0");
      }
    }
  }
  EXPECT_TRUE(saw_states);
  const Histogram* dp_ms =
      MetricsRegistry::Global().FindHistogram("rdfa_dp_plan_ms");
  ASSERT_NE(dp_ms, nullptr);
  EXPECT_GE(dp_ms->Count(), 1u);
}

}  // namespace
}  // namespace rdfa
