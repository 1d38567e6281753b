// Ablation study over the BGP query-path knobs: join reordering (source vs
// greedy order from GraphStats-calibrated estimates), the join strategy
// (index nested-loop vs adaptive order-preserving hash join), and planner
// v2 (DP join ordering + order-aware merge joins with sideways information
// passing). Every configuration must return the same result set; what
// changes is the work done, reported as total index rows enumerated
// (rows_scanned) and wall time.
//
// Run: ./build/bench/bench_ablation [--scale=100k] [--iters=N]
//                                   [--json=<path>] [--ablate-hash-join]
//                                   [--storage=heap|mmap]
//                                   [--trace-out=<dir>]
//   --scale:            laptop count of the generated product KG
//                       (default 20k)
//   --iters:            repetitions per query/config (default 1; all runs
//                       feed the p50/p99 figures)
//   --json=<path>:      write one machine-readable JSON object for the
//                       whole run (scale, iters, p50/p99, per-run
//                       ExecStats + plan shapes + result hash)
//   --ablate-hash-join: force nested-loop joins in the adaptive configs,
//                       isolating the hash join's contribution
//   --storage=heap|mmap: serve the KG from the heap (default) or round-trip
//                       it through an RDFA3 snapshot and run everything off
//                       the mapped view; result hashes must agree between
//                       the two, which ci/validate_bench.py planner-gates
//                       enforces
//   --trace-out=<dir>:  write one Chrome trace-event JSON file per
//                       (query, config) pair — first iteration of each
//
// Exit code is non-zero if any configuration diverges from the baseline
// result set, or if (without --ablate-hash-join) the adaptive configuration
// fails to beat the NLJ baseline on total rows_scanned, or the planner-v2
// dp configuration fails to beat the adaptive one.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/query_context.h"
#include "rdf/binary_io.h"
#include "rdf/graph.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "workload/products.h"

namespace {

using rdfa::bench::JsonArray;
using rdfa::bench::JsonObject;
using rdfa::bench::MsSince;
using rdfa::bench::ParseScale;
using rdfa::bench::Percentile;
using rdfa::bench::WriteJsonFile;
using rdfa::sparql::JoinStrategy;

constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

struct QuerySpec {
  const char* id;
  const char* description;
  const char* body;  // appended to kPfx
};

// Multi-pattern joins over the product KG. Source order is written
// big-range-first so the no-reorder runs exercise the probe-many shape the
// hash join targets; the reordered runs show what the cost model picks; the
// chains give the DP planner orders whose intermediates stay sorted on the
// join variable, which is where the merge join earns its keep.
const QuerySpec kSuite[] = {
    {"Q1", "laptop -> company origin",
     "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . }"},
    {"Q2", "laptop -> origin -> GDP",
     "SELECT ?l ?m ?c ?g WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . "
     "?c ex:GDPPerCapita ?g . }"},
    {"Q3", "laptop price + company origin",
     "SELECT ?l ?p ?c WHERE { ?l ex:manufacturer ?m . ?l ex:price ?p . "
     "?m ex:origin ?c . }"},
    {"Q4", "laptop -> drive -> maker origin",
     "SELECT ?l ?h ?c WHERE { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm . "
     "?hm ex:origin ?c . }"},
    {"Q5", "selective: companies from country0",
     "SELECT ?l ?m WHERE { ?l ex:releaseDate ?d . ?l ex:price ?p . "
     "?l ex:manufacturer ?m . ?m ex:origin ex:country0 . }"},
};

struct Config {
  std::string name;
  bool reorder = false;
  JoinStrategy strategy = JoinStrategy::kNestedLoop;
  bool use_dp = false;
};

struct RunResult {
  std::string tsv;
  rdfa::sparql::ExecStats stats;
  double ms = 0;
  bool ok = false;
};

RunResult RunOnce(rdfa::rdf::Graph* graph, const std::string& query,
                  const Config& cfg,
                  const std::shared_ptr<rdfa::Tracer>& tracer = nullptr) {
  RunResult r;
  auto parsed = rdfa::sparql::ParseQuery(query);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return r;
  }
  rdfa::sparql::Executor exec(graph, cfg.reorder);
  exec.set_join_strategy(cfg.strategy);
  exec.set_use_dp(cfg.use_dp);
  if (tracer != nullptr) {
    rdfa::QueryContext ctx;
    ctx.set_tracer(tracer);
    exec.set_query_context(ctx);
  }
  auto start = std::chrono::steady_clock::now();
  auto res = exec.Execute(parsed.value());
  r.ms = MsSince(start);
  if (!res.ok()) {
    std::fprintf(stderr, "exec: %s\n", res.status().ToString().c_str());
    return r;
  }
  r.tsv = res.value().ToTsv();
  r.stats = exec.stats();
  r.ok = true;
  return r;
}

size_t TotalScanned(const rdfa::sparql::ExecStats& stats) {
  return std::accumulate(stats.rows_scanned.begin(), stats.rows_scanned.end(),
                         size_t{0});
}

std::string StrategyString(const rdfa::sparql::ExecStats& stats) {
  return std::string(stats.join_strategy.begin(), stats.join_strategy.end());
}

const char* StrategyName(JoinStrategy s) {
  return s == JoinStrategy::kNestedLoop ? "nested-loop" : "adaptive";
}

// Row-order-insensitive view of a TSV result, for comparing runs whose join
// *order* differs (reordering legitimately permutes output rows; only runs
// with the identical plan must match byte-for-byte).
std::string SortedLines(const std::string& tsv) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < tsv.size()) {
    size_t end = tsv.find('\n', start);
    if (end == std::string::npos) end = tsv.size();
    lines.push_back(tsv.substr(start, end - start));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

// FNV-1a over the *sorted* result lines: a storage-backend- and
// plan-order-insensitive fingerprint of the result set, compared across the
// heap and mmap runs by ci/validate_bench.py planner-gates.
std::string TsvHash(const std::string& tsv) {
  const std::string canon = SortedLines(tsv);
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : canon) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  size_t scale = 20000;
  int iters = 1;
  std::string json_path;
  std::string storage = "heap";
  bool ablate_hash = false;
  rdfa::bench::TraceSink trace_sink;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      size_t s = ParseScale(arg.c_str() + 8);
      if (s > 0) scale = s;
    } else if (arg.rfind("--iters=", 0) == 0) {
      int n = std::atoi(arg.c_str() + 8);
      iters = n < 1 ? 1 : n;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--ablate-hash-join") {
      ablate_hash = true;
    } else if (arg.rfind("--storage=", 0) == 0) {
      storage = arg.substr(10);
      if (storage != "heap" && storage != "mmap") {
        std::fprintf(stderr, "unknown --storage=%s (heap|mmap)\n",
                     storage.c_str());
        return 1;
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_sink.set_dir(arg.substr(12));
    }
  }

  const JoinStrategy adaptive =
      ablate_hash ? JoinStrategy::kNestedLoop : JoinStrategy::kAdaptive;
  // Indices matter: 0/2 share the source-order plan and 1/3 the reordered
  // plan, so each pair differs only in strategy.
  const std::vector<Config> configs = {
      // The NLJ baseline: nested loops only.
      {"nlj/source", false, JoinStrategy::kNestedLoop},
      {"nlj/reorder", true, JoinStrategy::kNestedLoop},
      // Adaptive hash join.
      {"adaptive/source", false, adaptive},
      {"adaptive/reorder", true, adaptive},
      // Planner v2: DP join ordering + merge joins. DP *is* the reorderer,
      // so it ignores the reorder flag and one plan covers both orders.
      {"dp", true, JoinStrategy::kAdaptive, true},
  };

  std::printf("== BGP ablation: reorder x join strategy x planner ==\n\n");
  rdfa::rdf::Graph heap_graph;
  rdfa::workload::ProductKgOptions opt;
  opt.laptops = scale;
  opt.companies = scale / 100 + 5;
  rdfa::workload::GenerateProductKg(&heap_graph, opt);
  std::unique_ptr<rdfa::rdf::Graph> mapped_graph;
  rdfa::rdf::Graph* g = &heap_graph;
  if (storage == "mmap") {
    const std::string snap =
        "/tmp/bench_ablation_" + std::to_string(scale) + ".rdfa";
    if (!rdfa::rdf::SaveBinaryFile(heap_graph, snap).ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n", snap.c_str());
      return 1;
    }
    auto mapped = rdfa::rdf::OpenMappedSnapshot(snap);
    if (!mapped.ok()) {
      std::fprintf(stderr, "snapshot open failed: %s\n",
                   mapped.status().ToString().c_str());
      return 1;
    }
    mapped_graph = std::move(mapped).value();
    g = mapped_graph.get();
  }
  g->Freeze();
  std::printf(
      "product KG: %zu triples (%zu laptops, %zu companies) storage=%s%s\n"
      "\n",
      g->size(), opt.laptops, opt.companies, storage.c_str(),
      ablate_hash ? "  [hash join ABLATED]" : "");

  bool identical = true;
  bool all_ok = true;
  size_t baseline_scanned = 0;  // nlj, summed over queries + orders
  size_t adaptive_scanned = 0;  // adaptive, same accounting
  size_t dp_scanned = 0;        // dp, its one plan counted for both orders
  std::vector<double> latencies;
  std::vector<std::string> run_json;

  for (const QuerySpec& spec : kSuite) {
    const std::string query = std::string(kPfx) + spec.body;
    std::printf("%s  %s\n", spec.id, spec.description);
    // Equivalence contract: runs that share a join order (same `reorder`
    // flag) must match byte-for-byte no matter the strategy; runs under
    // different orders must agree as row sets.
    std::vector<std::string> tsvs;  // parallel to configs
    for (const Config& cfg : configs) {
      RunResult first;
      std::vector<double> cfg_ms;
      for (int it = 0; it < iters; ++it) {
        std::shared_ptr<rdfa::Tracer> tracer =
            it == 0 ? trace_sink.StartRun() : nullptr;
        RunResult r = RunOnce(g, query, cfg, tracer);
        if (tracer != nullptr) {
          (void)trace_sink.FinishRun(tracer.get(), "ablation");
        }
        if (!r.ok) {
          all_ok = false;
          break;
        }
        cfg_ms.push_back(r.ms);
        latencies.push_back(r.ms);
        if (it == 0) first = std::move(r);
      }
      if (!first.ok) {
        tsvs.emplace_back();
        continue;
      }
      tsvs.push_back(first.tsv);
      const size_t scanned = TotalScanned(first.stats);
      if (cfg.use_dp) {
        dp_scanned += 2 * scanned;
      } else if (cfg.name.rfind("nlj", 0) == 0) {
        baseline_scanned += scanned;
      } else {
        adaptive_scanned += scanned;
      }
      std::printf("  %-24s %9zu scanned  strategy=%-4s %9.2f ms\n",
                  cfg.name.c_str(), scanned,
                  StrategyString(first.stats).c_str(),
                  Percentile(cfg_ms, 0.50));

      JsonObject run;
      run.AddString("query", spec.id);
      run.AddString("config", cfg.name);
      run.AddBool("reorder", cfg.reorder);
      run.AddString("strategy", StrategyName(cfg.strategy));
      run.AddBool("use_dp", cfg.use_dp);
      run.AddInt("rows_scanned_total", scanned);
      run.AddString("tsv_hash", TsvHash(first.tsv));
      run.AddNumber("p50_ms", Percentile(cfg_ms, 0.50));
      run.AddNumber("p99_ms", Percentile(cfg_ms, 0.99));
      // ExecStats embeds the plan shapes ("plans": the explainable per-step
      // strategy/permutation JSON) for the planner-v2 configs.
      run.AddRaw("exec_stats", first.stats.ToJson());
      run_json.push_back(run.Render());
    }
    if (tsvs.size() == configs.size() && !tsvs[0].empty()) {
      // Pairs that share a plan must be byte-identical; any other pair may
      // differ in row order.
      auto check_exact = [&](size_t a, size_t b) {
        if (tsvs[a] != tsvs[b]) {
          identical = false;
          std::printf("  DIVERGED: %s vs %s (same plan)\n",
                      configs[a].name.c_str(), configs[b].name.c_str());
        }
      };
      auto check_set = [&](size_t a, size_t b) {
        if (SortedLines(tsvs[a]) != SortedLines(tsvs[b])) {
          identical = false;
          std::printf("  DIVERGED: %s vs %s (row sets)\n",
                      configs[a].name.c_str(), configs[b].name.c_str());
        }
      };
      check_exact(0, 2);
      check_exact(1, 3);
      check_set(0, 1);
      check_set(0, 4);
    }
  }

  std::printf("\ntotals over the query set (source + reordered runs):\n");
  std::printf("  nlj baseline        : %9zu rows scanned\n", baseline_scanned);
  std::printf("  adaptive            : %9zu rows scanned (%.1fx fewer)\n",
              adaptive_scanned,
              adaptive_scanned > 0
                  ? static_cast<double>(baseline_scanned) /
                        static_cast<double>(adaptive_scanned)
                  : 0.0);
  const double planner_ratio =
      dp_scanned > 0 ? static_cast<double>(adaptive_scanned) /
                           static_cast<double>(dp_scanned)
                     : 0.0;
  std::printf("  dp (planner v2)     : %9zu rows scanned (%.2fx fewer than "
              "adaptive)\n",
              dp_scanned, planner_ratio);
  std::printf("  results across configs: %s\n",
              identical ? "equivalent" : "DIVERGED");

  const bool hash_won = adaptive_scanned < baseline_scanned;
  if (!ablate_hash && !hash_won) {
    std::printf("FAILED: adaptive hash join did not reduce rows scanned\n");
  }
  const bool dp_won = dp_scanned < adaptive_scanned;
  if (!ablate_hash && !dp_won) {
    std::printf("FAILED: planner v2 (DP+merge) did not reduce rows scanned\n");
  }

  if (!json_path.empty()) {
    JsonObject top;
    top.AddString("bench", "bench_ablation");
    top.AddInt("scale", scale);
    top.AddInt("iters", static_cast<uint64_t>(iters));
    top.AddInt("triples", g->size());
    top.AddString("storage", storage);
    top.AddBool("ablate_hash_join", ablate_hash);
    top.AddNumber("p50_ms", Percentile(latencies, 0.50));
    top.AddNumber("p99_ms", Percentile(latencies, 0.99));
    top.AddInt("baseline_rows_scanned", baseline_scanned);
    top.AddInt("adaptive_rows_scanned", adaptive_scanned);
    top.AddInt("dp_rows_scanned", dp_scanned);
    top.AddNumber("planner_ratio", planner_ratio);
    top.AddBool("byte_identical", identical);
    top.AddRaw("runs", JsonArray(run_json));
    if (!WriteJsonFile(json_path, top.Render())) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!all_ok || !identical) return 1;
  if (!ablate_hash && (!hash_won || !dp_won)) return 1;
  return 0;
}
