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
/// rather than asserted. All times are wall-clock milliseconds.
struct ExecStats {
  int threads = 1;             ///< thread budget the query ran with
  double index_build_ms = 0;   ///< Graph::Freeze and secondary permutation
                               ///< builds (non-zero on first touch)
  double bgp_ms = 0;           ///< total BGP join time across pattern runs
  /// FILTER evaluation across pattern runs (a filter's EXISTS probes are
  /// charged here and, for their joins, to bgp_ms as well)
  double filter_ms = 0;
  double group_agg_ms = 0;     ///< grouping + aggregate computation
  double projection_ms = 0;    ///< SELECT-list projection into result cells
  double total_ms = 0;         ///< whole Execute call
  size_t morsel_count = 0;     ///< parallel morsels executed, all stages
  size_t bgp_patterns = 0;     ///< triple patterns joined
  /// Index rows enumerated per executed pattern, in execution order.
  std::vector<size_t> rows_scanned;
  /// The join order chosen by the greedy reorderer: position i holds the
  /// source-order index (within its BGP run) of the pattern executed i-th.
  std::vector<int> join_order;
  /// Join strategy per executed pattern, parallel to join_order:
  /// 'N' = index nested-loop, 'H' = order-preserving hash join,
  /// 'M' = planner-v2 streaming merge join.
  std::vector<char> join_strategy;
  size_t hash_builds = 0;      ///< patterns executed via the hash strategy
  size_t hash_build_rows = 0;  ///< build-side index rows enumerated
  size_t hash_probe_hits = 0;  ///< bucket entries probed across all rows
  size_t merge_joins = 0;        ///< patterns executed via the merge strategy
  size_t merge_rows_decoded = 0; ///< index entries merge cursors decoded
  size_t sieve_seeks = 0;        ///< SeekGE calls issued by merge cursors
  size_t sieve_keys = 0;         ///< distinct join-key runs sieved from input
  size_t dp_plans = 0;           ///< BGP runs ordered by the DP search
  /// Planner-v2 plan shape per BGP run (BgpPlan::ToJson: strategies,
  /// permutations, expected rows) — the explainable-plan surface.
  std::vector<std::string> plan_shapes;
  /// Set when the query unwound on a tripped deadline or cancellation; the
  /// other counters then describe the *partial* work done up to the trip
  /// (so callers can see where the budget went).
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
                    " group_agg=" + FormatMs(group_agg_ms) +
                    " projection=" + FormatMs(projection_ms) +
                    " morsels=" + std::to_string(morsel_count) +
                    " patterns=" + std::to_string(bgp_patterns);
    if (aborted) {
      s += " aborted@" + (abort_stage.empty() ? "?" : abort_stage);
    }
    if (!join_order.empty()) {
      s += " order=[";
      for (size_t i = 0; i < join_order.size(); ++i) {
        if (i > 0) s += ",";
        s += std::to_string(join_order[i]);
      }
      s += "]";
    }
    if (!rows_scanned.empty()) {
      s += " scanned=[";
      for (size_t i = 0; i < rows_scanned.size(); ++i) {
        if (i > 0) s += ",";
        s += std::to_string(rows_scanned[i]);
      }
      s += "]";
    }
    if (!join_strategy.empty()) {
      s += " strategy=[";
      for (size_t i = 0; i < join_strategy.size(); ++i) {
        if (i > 0) s += ",";
        s += join_strategy[i];
      }
      s += "]";
    }
    if (hash_builds > 0) {
      s += " hash_builds=" + std::to_string(hash_builds) +
           " hash_build_rows=" + std::to_string(hash_build_rows) +
           " hash_probe_hits=" + std::to_string(hash_probe_hits);
    }
    if (merge_joins > 0) {
      s += " merge_joins=" + std::to_string(merge_joins) +
           " merge_rows_decoded=" + std::to_string(merge_rows_decoded) +
           " sieve_seeks=" + std::to_string(sieve_seeks) +
           " sieve_keys=" + std::to_string(sieve_keys);
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
    s += ",\"group_agg_ms\":" + JsonNum(group_agg_ms);
    s += ",\"projection_ms\":" + JsonNum(projection_ms);
    s += ",\"morsel_count\":" + std::to_string(morsel_count);
    s += ",\"bgp_patterns\":" + std::to_string(bgp_patterns);
    s += ",\"aborted\":" + std::string(aborted ? "true" : "false");
    s += ",\"abort_stage\":\"" + JsonEscape(abort_stage) + "\"";
    s += ",\"rows_scanned\":[";
    for (size_t i = 0; i < rows_scanned.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(rows_scanned[i]);
    }
    s += "],\"join_order\":[";
    for (size_t i = 0; i < join_order.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(join_order[i]);
    }
    s += "],\"join_strategy\":[";
    for (size_t i = 0; i < join_strategy.size(); ++i) {
      if (i > 0) s += ",";
      s += "\"" + JsonEscape(std::string_view(&join_strategy[i], 1)) + "\"";
    }
    s += "],\"hash_builds\":" + std::to_string(hash_builds);
    s += ",\"hash_build_rows\":" + std::to_string(hash_build_rows);
    s += ",\"hash_probe_hits\":" + std::to_string(hash_probe_hits);
    s += ",\"merge_joins\":" + std::to_string(merge_joins);
    s += ",\"merge_rows_decoded\":" + std::to_string(merge_rows_decoded);
    s += ",\"sieve_seeks\":" + std::to_string(sieve_seeks);
    s += ",\"sieve_keys\":" + std::to_string(sieve_keys);
    s += ",\"dp_plans\":" + std::to_string(dp_plans);
    // Plan shapes are already JSON objects; embed them verbatim.
    s += ",\"plans\":[";
    for (size_t i = 0; i < plan_shapes.size(); ++i) {
      if (i > 0) s += ",";
      s += plan_shapes[i];
    }
    s += "]}";
    return s;
  }

 private:
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
