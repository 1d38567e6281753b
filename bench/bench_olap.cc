// Reproduces §7 (Figs 7.1 / 7.2): the OLAP operators supported by the
// interaction model — roll-up, drill-down, slice, dice, pivot — executed
// over an invoices cube, with timing and cube sizes at each step.
//
// Run: ./build/bench/bench_olap [--scale=1k|20k] [--iters=N] [--json=<path>]
//                               [--trace-out=<dir>] [--cache-mb=N]
//   --scale: invoice count of the generated cube KG (default 20k)
//   --iters: repetitions per OLAP operator (default 1; the first run is
//            printed, all runs feed the p50/p99 figures)
//   --cache-mb: generation-aware roll-up cache budget in MB (0 = off, the
//            default). With the cache on, revisited cube levels (repeat
//            iterations, drill-down back to an already-materialized level)
//            are served from the cache, every cached cube is byte-compared
//            against the first materialization, and hit rates land in the
//            JSON output.
//   --json:  write one machine-readable JSON object for the run (scale,
//            iters, p50/p99, per-step ExecStats)
//   --trace-out: write one Chrome trace-event JSON file per OLAP step
//            (first iteration of each) under <dir>, Perfetto-loadable
//
// The roll-up reuse leg (§3.3 materialized-answer reuse) answers the brand
// cube twice, serially: by re-querying the base KG, and by RollUpAnswer over
// the materialized finer brand x month cube. It prints both medians and
// exits non-zero unless the two answers are equal.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analytics/olap.h"
#include "analytics/rollup_cache.h"
#include "bench_util.h"
#include "common/query_context.h"
#include "workload/invoices.h"

namespace {

using rdfa::bench::JsonArray;
using rdfa::bench::JsonObject;
using rdfa::bench::MsSince;
using rdfa::bench::ParseScale;
using rdfa::bench::Percentile;
using rdfa::bench::WriteJsonFile;

const std::string kInv = rdfa::workload::kInvoiceNs;

int g_iters = 1;
std::vector<double> g_latencies_ms;
std::vector<std::string> g_step_json;
rdfa::bench::TraceSink g_trace;
size_t g_cache_mb = 0;
std::unique_ptr<rdfa::analytics::RollupCache> g_cache;
int g_cache_mismatches = 0;

void Step(const char* op, rdfa::analytics::OlapView* cube) {
  // First materialization of this step, for the cache byte-identity check.
  std::string reference_tsv;
  for (int i = 0; i < g_iters; ++i) {
    // Only the first iteration of each step writes a trace file; the span
    // structure is identical across iterations.
    std::shared_ptr<rdfa::Tracer> tracer;
    if (i == 0 && g_trace.enabled()) {
      tracer = g_trace.StartRun();
      rdfa::QueryContext ctx;
      ctx.set_tracer(tracer);
      cube->set_query_context(ctx);
    }
    auto start = std::chrono::steady_clock::now();
    auto af = cube->Materialize();
    double ms = MsSince(start);
    if (tracer != nullptr) {
      cube->set_query_context(rdfa::QueryContext());
      (void)g_trace.FinishRun(tracer.get(), "olap");
    }
    if (!af.ok()) {
      std::printf("%-38s FAILED: %s\n", op, af.status().ToString().c_str());
      return;
    }
    g_latencies_ms.push_back(ms);
    if (g_cache != nullptr) {
      std::string tsv = af.value().table().ToTsv();
      if (i == 0) {
        reference_tsv = std::move(tsv);
      } else if (tsv != reference_tsv) {
        std::printf("%-38s CACHED CUBE DIVERGED\n", op);
        ++g_cache_mismatches;
      }
    }
    if (i == 0) {
      std::printf("%-38s %8zu cells %10.2f ms\n", op,
                  af.value().table().num_rows(), ms);
      JsonObject step;
      step.AddString("op", op);
      step.AddInt("cells", af.value().table().num_rows());
      step.AddNumber("ms", ms);
      step.AddRaw("exec_stats", cube->last_exec_stats().ToJson());
      g_step_json.push_back(step.Render());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  size_t scale = 20000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      size_t s = ParseScale(arg.c_str() + 8);
      if (s > 0) scale = s;
    } else if (arg.rfind("--iters=", 0) == 0) {
      int n = std::atoi(arg.c_str() + 8);
      g_iters = n < 1 ? 1 : n;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      long mb = std::atol(arg.c_str() + 11);
      g_cache_mb = mb < 0 ? 0 : static_cast<size_t>(mb);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      g_trace.set_dir(arg.substr(12));
    }
  }
  if (g_cache_mb > 0) {
    rdfa::CacheOptions copts = rdfa::analytics::RollupCache::DefaultOptions();
    copts.max_bytes = g_cache_mb << 20;
    g_cache = std::make_unique<rdfa::analytics::RollupCache>(copts);
    if (g_iters < 2) {
      // One iteration per step would only exercise hits on revisited
      // levels; bump so every step gets a cached re-materialization and
      // the byte-identity check has something to compare.
      g_iters = 2;
      std::printf("(--cache-mb set: raising --iters to 2 so cached cubes "
                  "can be exercised)\n");
    }
  }
  std::printf("== Fig 7.1/7.2 reproduction: OLAP operators over the invoices "
              "cube ==\n\n");
  rdfa::rdf::Graph g;
  rdfa::workload::InvoicesOptions opt;
  opt.invoices = scale;
  opt.branches = 25;
  opt.products = 200;
  opt.brands = 15;
  rdfa::workload::GenerateInvoices(&g, opt);
  std::printf("invoices KG: %zu triples\n\n", g.size());

  rdfa::analytics::AnalyticsSession session(&g);
  if (!session.fs().ClickClass(kInv + "Invoice").ok()) return 1;

  rdfa::analytics::Dimension time;
  time.name = "time";
  time.levels = {
      {"date", {kInv + "hasDate"}, ""},
      {"month", {kInv + "hasDate"}, "MONTH"},
      {"year", {kInv + "hasDate"}, "YEAR"},
  };
  rdfa::analytics::Dimension product;
  product.name = "product";
  product.levels = {
      {"product", {kInv + "delivers"}, ""},
      {"brand", {kInv + "delivers", kInv + "brand"}, ""},
  };
  rdfa::analytics::MeasureSpec measure;
  measure.path = {kInv + "inQuantity"};
  measure.ops = {rdfa::hifun::AggOp::kSum};

  rdfa::analytics::OlapView cube(&session, {time, product}, measure);
  if (g_cache != nullptr) cube.set_cache(g_cache.get());

  std::printf("%-38s %14s %13s\n", "operation", "result", "time");
  Step("base cube (date x product)", &cube);
  (void)cube.RollUp("time");
  Step("roll-up time->month", &cube);
  (void)cube.RollUp("time");
  Step("roll-up time->year", &cube);
  (void)cube.RollUp("product");
  Step("roll-up product->brand", &cube);
  (void)cube.DrillDown("time");
  Step("drill-down time->month", &cube);
  cube.Pivot();
  Step("pivot (brand major)", &cube);
  (void)cube.Dice("product", std::nullopt, std::nullopt);  // no-op (error)
  (void)cube.Slice("product",
                   rdfa::rdf::Term::Iri(kInv + "brand0"));
  Step("slice product=brand0", &cube);

  std::printf("\nmaterialization latency over %zu runs: p50 %.2f ms, "
              "p99 %.2f ms\n",
              g_latencies_ms.size(), Percentile(g_latencies_ms, 0.50),
              Percentile(g_latencies_ms, 0.99));

  uint64_t update_hits = 0;
  int update_rounds = 0;
  if (g_cache != nullptr) {
    rdfa::CacheStats s = g_cache->Stats();
    std::printf("\nrollup cache: %llu hits / %llu misses (%.0f%% hit rate), "
                "%zu cubes resident, %zu bytes\n",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses), 100 * s.HitRate(),
                s.entries, s.bytes);
    // Mixed-updates leg: mutations to an *unrelated* predicate must not
    // invalidate materialized cubes. Footprint-stamped entries are only
    // bound to the predicates their SPARQL touches, so these pokes leave
    // every cube valid and re-materializations keep hitting.
    const uint64_t pre_hits = s.hits;
    update_rounds = 3;
    for (int round = 0; round < update_rounds; ++round) {
      g.Add(rdfa::rdf::Term::Iri(kInv + "poke" + std::to_string(round)),
            rdfa::rdf::Term::Iri(kInv + "benchPoke"),
            rdfa::rdf::Term::Integer(round));
      auto af = cube.Materialize();
      if (!af.ok()) {
        std::printf("FAILED: materialization under updates: %s\n",
                    af.status().ToString().c_str());
        return 1;
      }
    }
    update_hits = g_cache->Stats().hits - pre_hits;
    std::printf("rollup cache under updates: %llu hits across %d "
                "unrelated-predicate mutations%s\n",
                static_cast<unsigned long long>(update_hits), update_rounds,
                update_hits > 0 ? "" : "  FAILED (expected hits > 0)");
    if (update_hits == 0) ++g_cache_mismatches;
  }

  // Deadline demonstration: an impossible budget must unwind with a typed
  // DEADLINE_EXCEEDED (partial stats preserved), not hang or return a cube.
  // The cache is detached first — a memoized cube would (correctly) be
  // served without executing anything, so nothing would trip.
  cube.set_cache(nullptr);
  cube.set_query_context(rdfa::QueryContext::WithDeadlineMs(0.0));
  auto tripped = cube.Materialize();
  if (tripped.ok() ||
      tripped.status().code() != rdfa::StatusCode::kDeadlineExceeded) {
    std::printf("FAILED: 0 ms budget did not trip the deadline\n");
    return 1;
  }
  std::printf("0 ms budget: %s (aborted@%s)\n",
              tripped.status().ToString().c_str(),
              cube.last_exec_stats().abort_stage.c_str());
  cube.set_query_context(rdfa::QueryContext());

  std::printf(
      "\nshape check vs paper: roll-up shrinks the cube monotonically, "
      "drill-down restores the finer cube,\nslice removes a dimension; every "
      "operator is a constant number of interaction-model actions.\n");

  // --- serial vs morsel-parallel materialization --------------------------
  // The parallel cube must be byte-identical to the serial one; thread
  // count is purely a performance knob (DESIGN.md threading model).
  std::printf("\n== serial vs parallel cube materialization ==\n\n");
  rdfa::analytics::AnalyticsSession serial_session(&g);
  rdfa::analytics::AnalyticsSession parallel_session(&g);
  if (!serial_session.fs().ClickClass(kInv + "Invoice").ok()) return 1;
  if (!parallel_session.fs().ClickClass(kInv + "Invoice").ok()) return 1;
  rdfa::analytics::OlapView serial_cube(&serial_session, {time, product},
                                        measure);
  rdfa::analytics::OlapView parallel_cube(&parallel_session, {time, product},
                                          measure);
  parallel_cube.set_thread_count(4);

  bool identical = true;
  double serial_total = 0, parallel_total = 0;
  std::printf("%-30s %12s %12s %10s\n", "cube", "serial", "4 threads",
              "identical");
  for (int step = 0; step < 3; ++step) {
    auto s_start = std::chrono::steady_clock::now();
    auto s_af = serial_cube.Materialize();
    double s_ms = MsSince(s_start);
    auto p_start = std::chrono::steady_clock::now();
    auto p_af = parallel_cube.Materialize();
    double p_ms = MsSince(p_start);
    if (!s_af.ok() || !p_af.ok()) {
      std::printf("materialization failed at step %d\n", step);
      return 1;
    }
    bool same =
        s_af.value().table().ToTsv() == p_af.value().table().ToTsv();
    identical = identical && same;
    serial_total += s_ms;
    parallel_total += p_ms;
    std::printf("%-30s %10.2fms %10.2fms %10s\n",
                step == 0 ? "base (date x product)" : "after roll-up",
                s_ms, p_ms, same ? "yes" : "NO");
    std::printf("  stats: %s\n",
                parallel_cube.last_exec_stats().Summary().c_str());
    (void)serial_cube.RollUp("time");
    (void)parallel_cube.RollUp("time");
  }
  std::printf("\ntotals: serial %.2fms, 4 threads %.2fms (speedup %.2fx), "
              "results %s\n",
              serial_total, parallel_total,
              parallel_total > 0 ? serial_total / parallel_total : 0.0,
              identical ? "byte-identical" : "DIVERGED");

  // --- roll-up reuse: base KG vs the materialized finer cube ---------------
  std::printf("\n== roll-up reuse: re-query the base KG vs roll up the "
              "brand x month cube ==\n\n");
  rdfa::analytics::AnalyticsSession fine_session(&g);
  rdfa::analytics::AnalyticsSession coarse_session(&g);
  const rdfa::analytics::GroupingSpec by_brand{
      {kInv + "delivers", kInv + "brand"}, ""};
  const rdfa::analytics::GroupingSpec by_month{{kInv + "hasDate"}, "MONTH"};
  for (auto* s : {&fine_session, &coarse_session}) {
    if (!s->fs().ClickClass(kInv + "Invoice").ok() ||
        !s->ClickGroupBy(by_brand).ok() || !s->ClickAggregate(measure).ok()) {
      return 1;
    }
  }
  if (!fine_session.ClickGroupBy(by_month).ok()) return 1;
  auto fine = fine_session.Execute();
  if (!fine.ok()) {
    std::printf("FAILED: finer cube: %s\n", fine.status().ToString().c_str());
    return 1;
  }
  const std::string brand_col = fine.value().table().columns()[0];
  const std::string agg_col = fine.value().table().columns().back();
  std::vector<double> requery_ms, rollup_ms;
  bool reuse_equal = true;
  for (int i = 0; i < std::max(g_iters, 5); ++i) {
    auto start = std::chrono::steady_clock::now();
    auto coarse = coarse_session.Execute();
    requery_ms.push_back(MsSince(start));
    start = std::chrono::steady_clock::now();
    auto rolled = rdfa::analytics::RollUpAnswer(
        fine.value(), {brand_col}, agg_col, rdfa::hifun::AggOp::kSum);
    rollup_ms.push_back(MsSince(start));
    reuse_equal = reuse_equal && coarse.ok() && rolled.ok() &&
                  coarse.value().table().ToTsv() ==
                      rolled.value().table().ToTsv();
  }
  const double requery_p50 = Percentile(requery_ms, 0.50);
  const double rollup_p50 = Percentile(rollup_ms, 0.50);
  std::printf("finer cube: %zu cells; brand cube over %zu runs: re-query "
              "%.3f ms, roll-up %.3f ms (%.0fx), answers %s\n",
              fine.value().table().num_rows(), requery_ms.size(), requery_p50,
              rollup_p50, rollup_p50 > 0 ? requery_p50 / rollup_p50 : 0.0,
              reuse_equal ? "equal" : "DIFFER");

  if (!json_path.empty()) {
    JsonObject top;
    top.AddString("bench", "bench_olap");
    top.AddInt("scale", scale);
    top.AddInt("iters", static_cast<uint64_t>(g_iters));
    top.AddInt("triples", g.size());
    top.AddNumber("p50_ms", Percentile(g_latencies_ms, 0.50));
    top.AddNumber("p99_ms", Percentile(g_latencies_ms, 0.99));
    top.AddNumber("serial_total_ms", serial_total);
    top.AddNumber("parallel_total_ms", parallel_total);
    top.AddBool("byte_identical", identical);
    top.AddInt("cache_mb", g_cache_mb);
    {
      rdfa::CacheStats s =
          g_cache != nullptr ? g_cache->Stats() : rdfa::CacheStats{};
      JsonObject cache;
      cache.AddInt("hits", s.hits);
      cache.AddInt("misses", s.misses);
      cache.AddNumber("hit_rate", s.HitRate());
      cache.AddInt("evictions", s.evictions);
      cache.AddInt("invalidations", s.invalidations);
      top.AddRaw("rollup_cache", cache.Render());
    }
    top.AddInt("update_rounds", static_cast<uint64_t>(update_rounds));
    top.AddInt("update_hits", update_hits);
    top.AddInt("cache_mismatches", static_cast<uint64_t>(g_cache_mismatches));
    {
      JsonObject reuse;
      reuse.AddInt("fine_cells", fine.value().table().num_rows());
      reuse.AddInt("runs", requery_ms.size());
      reuse.AddNumber("requery_p50_ms", requery_p50);
      reuse.AddNumber("rollup_p50_ms", rollup_p50);
      reuse.AddBool("equal", reuse_equal);
      top.AddRaw("rollup_reuse", reuse.Render());
    }
    top.AddRaw("runs", JsonArray(g_step_json));
    if (!WriteJsonFile(json_path, top.Render())) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical && g_cache_mismatches == 0 && reuse_equal ? 0 : 1;
}
