#ifndef RDFA_SPARQL_EXEC_STATS_H_
#define RDFA_SPARQL_EXEC_STATS_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace rdfa::sparql {

/// Per-query execution statistics, filled in by the Executor and threaded
/// through the endpoint and the benchmarks so speedups are observable
/// rather than asserted. All times are wall-clock milliseconds, each the
/// summed duration of the trace spans named beside it (DESIGN.md §10).
struct ExecStats {
  int threads = 1;             ///< thread budget the query ran with
  double index_build_ms = 0;   ///< Graph::Freeze: "index-build"
  double bgp_ms = 0;           ///< "bgp" minus the filter time inside
  /// FILTER evaluation: the outermost "filter" spans. A filter's EXISTS
  /// probes are charged here only: their nested filter, bgp and index-build
  /// spans stay in the trace but add nothing to these fields.
  double filter_ms = 0;
  /// BIND (a GROUP BY (expr AS ?v) included) and VALUES steps: "bind",
  /// outside EXISTS probes as for filter_ms.
  double bind_ms = 0;
  double group_agg_ms = 0;     ///< grouping + aggregates: "group-aggregate"
  double projection_ms = 0;    ///< SELECT-list projection: "projection"
  /// ORDER BY, DISTINCT and OFFSET/LIMIT: "order-distinct"
  double order_ms = 0;
  double total_ms = 0;         ///< whole Execute call: "execute"
  size_t morsel_count = 0;     ///< parallel morsels executed, all stages
  size_t bgp_patterns = 0;     ///< triple patterns joined
  /// Index rows enumerated per executed pattern, in execution order.
  std::vector<size_t> rows_scanned;
  /// The join order chosen by the greedy reorderer: position i holds the
  /// source-order index (within its BGP run) of the pattern executed i-th.
  std::vector<int> join_order;
  /// Join strategy per executed pattern, parallel to join_order:
  /// 'N' = index nested-loop, 'H' = order-preserving hash join,
  /// '*' = one pattern of a star step (one entry per pattern of the run),
  /// 'S' = the seed scan of a DP-seeded run (JoinOptions::use_dp).
  std::vector<char> join_strategy;
  size_t hash_builds = 0;      ///< patterns executed via the hash strategy
  size_t hash_build_rows = 0;  ///< build-side index rows enumerated
  size_t hash_probe_hits = 0;  ///< bucket entries probed across all rows
  size_t dp_plans = 0;         ///< BGP runs ordered by the DP search
  /// Planner-v2 plan shape per BGP run (BgpPlan::ToJson: strategies,
  /// permutations, expected rows) — the explainable-plan surface.
  std::vector<std::string> plan_shapes;
  /// Set when the query unwound on a tripped deadline or cancellation; the
  /// other counters then describe the *partial* work done up to the trip,
  /// the time of the stage it died in included (so callers can see where
  /// the budget went).
  bool aborted = false;
  /// The pipeline stage the abort unwound from (e.g. "bgp-join",
  /// "group-aggregate"); empty when !aborted.
  std::string abort_stage;

  void Reset() { *this = ExecStats{}; }

  /// One-line human-readable dump for logs and benchmarks.
  std::string Summary() const {
    std::string s = "threads=" + std::to_string(threads) +
                    " total=" + FormatMs(total_ms) +
                    " index_build=" + FormatMs(index_build_ms) +
                    " bgp=" + FormatMs(bgp_ms) +
                    " filter=" + FormatMs(filter_ms) +
                    " bind=" + FormatMs(bind_ms) +
                    " group_agg=" + FormatMs(group_agg_ms) +
                    " projection=" + FormatMs(projection_ms) +
                    " order_distinct=" + FormatMs(order_ms) +
                    " morsels=" + std::to_string(morsel_count) +
                    " patterns=" + std::to_string(bgp_patterns);
    if (aborted) {
      s += " aborted@" + (abort_stage.empty() ? "?" : abort_stage);
    }
    auto num = [](auto v) { return std::to_string(v); };
    if (!join_order.empty()) s += " order=[" + List(join_order, num) + "]";
    if (!rows_scanned.empty()) {
      s += " scanned=[" + List(rows_scanned, num) + "]";
    }
    if (!join_strategy.empty()) {
      s += " strategy=[" +
           List(join_strategy, [](char c) { return std::string(1, c); }) +
           "]";
    }
    if (hash_builds > 0) {
      s += " hash_builds=" + std::to_string(hash_builds) +
           " hash_build_rows=" + std::to_string(hash_build_rows) +
           " hash_probe_hits=" + std::to_string(hash_probe_hits);
    }
    if (dp_plans > 0) s += " dp_plans=" + std::to_string(dp_plans);
    return s;
  }

  /// The same counters as one JSON object (machine-readable benchmark
  /// output); no trailing newline.
  std::string ToJson() const {
    std::string s = "{";
    s += "\"threads\":" + std::to_string(threads);
    s += ",\"total_ms\":" + JsonNum(total_ms);
    s += ",\"index_build_ms\":" + JsonNum(index_build_ms);
    s += ",\"bgp_ms\":" + JsonNum(bgp_ms);
    s += ",\"filter_ms\":" + JsonNum(filter_ms);
    s += ",\"bind_ms\":" + JsonNum(bind_ms);
    s += ",\"group_agg_ms\":" + JsonNum(group_agg_ms);
    s += ",\"projection_ms\":" + JsonNum(projection_ms);
    s += ",\"order_ms\":" + JsonNum(order_ms);
    s += ",\"morsel_count\":" + std::to_string(morsel_count);
    s += ",\"bgp_patterns\":" + std::to_string(bgp_patterns);
    s += ",\"aborted\":" + std::string(aborted ? "true" : "false");
    s += ",\"abort_stage\":\"" + JsonEscape(abort_stage) + "\"";
    auto num = [](auto v) { return std::to_string(v); };
    s += ",\"rows_scanned\":[" + List(rows_scanned, num);
    s += "],\"join_order\":[" + List(join_order, num);
    s += "],\"join_strategy\":[" + List(join_strategy, [](char c) {
           return "\"" + JsonEscape(std::string_view(&c, 1)) + "\"";
         });
    s += "],\"hash_builds\":" + std::to_string(hash_builds);
    s += ",\"hash_build_rows\":" + std::to_string(hash_build_rows);
    s += ",\"hash_probe_hits\":" + std::to_string(hash_probe_hits);
    s += ",\"dp_plans\":" + std::to_string(dp_plans);
    // Plan shapes are already JSON objects; embed them verbatim.
    s += ",\"plans\":[" +
         List(plan_shapes, [](const std::string& p) { return p; }) + "]}";
    return s;
  }

 private:
  // The items of `v` rendered by `item`, comma-separated.
  template <typename T, typename Item>
  static std::string List(const std::vector<T>& v, const Item& item) {
    std::string s;
    for (size_t i = 0; i < v.size(); ++i) s += (i > 0 ? "," : "") + item(v[i]);
    return s;
  }

  static std::string FormatMs(double ms) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fms", ms);
    return buf;
  }

  static std::string JsonNum(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
  }
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_EXEC_STATS_H_
