#ifndef RDFA_SPARQL_BGP_H_
#define RDFA_SPARQL_BGP_H_

#include <functional>
#include <set>
#include <vector>

#include "common/query_context.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/exec_stats.h"
#include "sparql/expr_eval.h"

namespace rdfa::sparql {

/// A triple pattern with variables resolved to binding slots and constants
/// interned against a graph.
struct CompiledPattern {
  int s_var = -1, p_var = -1, o_var = -1;  // -1: constant position
  rdf::TermId s_id = rdf::kNoTermId;
  rdf::TermId p_id = rdf::kNoTermId;
  rdf::TermId o_id = rdf::kNoTermId;
  /// A constant term that does not occur in the graph: the pattern can never
  /// match, the whole BGP is empty.
  bool impossible = false;
};

/// Resolves variables through `vars` (allocating slots) and constants
/// through the graph's term table (without interning — absent terms mark the
/// pattern impossible).
CompiledPattern CompileTriple(const TriplePattern& tp, VarTable* vars,
                              const rdf::Graph& graph);

/// Calibrated per-row cardinality estimate: the constant-narrowed match
/// count, divided by the distinct count of each bound-variable lane within
/// that population (predicate-local when the predicate is constant).
/// Shared by the greedy reorderer, the adaptive hash decision, and the
/// planner-v2 DP cost model.
double CalibratedRowEstimate(const rdf::Graph& graph, const CompiledPattern& p,
                             bool s_bound, bool p_bound, bool o_bound);

/// How JoinBgp extends rows through a pattern.
enum class JoinStrategy {
  /// Per-pattern cost-based choice (the default and the only served mode):
  /// an order-preserving hash join when one build pays for many probes, one
  /// index range scan per input row otherwise. With JoinOptions::use_dp,
  /// planner-v2 runs also take the merge steps the plan marks qualified.
  kAdaptive,
  /// One index range scan per input row, everywhere — the test oracle.
  /// Planner-v2 merge steps demote to it in place.
  kNestedLoop,
};

/// Knobs and instrumentation for one JoinBgp call.
struct JoinOptions {
  /// Thread budget: <=1 runs the serial path. Parallelism is morsel-based —
  /// the input rows (or, for a single seed row, the first pattern's
  /// materialized index range) are split into contiguous morsels, extended
  /// independently, and concatenated in morsel order, so the result is
  /// byte-identical to the serial join.
  int threads = 1;
  /// When set, join order / rows-scanned / strategy / morsel counters are
  /// appended.
  ExecStats* stats = nullptr;
  /// When set, the join checks the context between patterns (and inside the
  /// hash-build loop) and every few hundred enumerated index rows; a
  /// tripped deadline / cancellation unwinds with the typed Status and
  /// `*rows` left in an unspecified partial state. Null = never stops.
  const QueryContext* ctx = nullptr;
  /// kAdaptive decides per pattern; kNestedLoop forces the NLJ oracle.
  JoinStrategy strategy = JoinStrategy::kAdaptive;
  /// Planner v2, engaged on trivial-seed BGP runs: replaces the greedy
  /// reorderer with an exhaustive DP search over subsets (<= 8 patterns;
  /// order-aware greedy above that), costed from the calibrated GraphStats
  /// and aware of which orders enable merge joins, then executes the plan
  /// with a seed scan and merge steps. When set, it overrides a false
  /// `reorder` flag — DP *is* the reorderer, so it is immune to source-order
  /// accidents. Orders only change performance, never the result set.
  bool use_dp = false;
  /// Plan-cache replay: a join order previously chosen for this BGP (source
  /// indexes in execution order, the ExecStats::join_order format). When it
  /// is a valid permutation of the pattern count, the greedy reorderer is
  /// skipped and this order applied verbatim; otherwise it is ignored.
  /// Orders only change performance, never result bytes.
  const std::vector<int>* replay_order = nullptr;
  /// Plan-cache capture: when set, receives the order actually executed
  /// (whether replayed, greedily chosen, or source order).
  std::vector<int>* capture_order = nullptr;
  /// A planner-v2 pipeline calls this between steps with the slots the
  /// steps so far bind, so the caller can run the FILTERs those slots make
  /// ready on `*rows` before later steps extend them. Filtering a row early
  /// drops exactly the extensions that filtering after the join would, and
  /// keeps the order of the rest. Other joins never call it.
  std::function<void(const std::set<int>& bound)> after_step;
};

/// Extends every binding in `*rows` through all `patterns` by index
/// nested-loop joins. When `reorder` is set, patterns are greedily ordered
/// by estimated selectivity given the variables bound so far (the ablation
/// benchmark toggles this). `rows` bindings are grown to `slot_count`.
/// Returns non-OK only when `opts.ctx` trips (DeadlineExceeded/Cancelled).
Status JoinBgp(const rdf::Graph& graph, std::vector<CompiledPattern> patterns,
               size_t slot_count, bool reorder, const JoinOptions& opts,
               std::vector<Binding>* rows);

/// Serial convenience overload (threads = 1, no stats, no context).
Status JoinBgp(const rdf::Graph& graph, std::vector<CompiledPattern> patterns,
               size_t slot_count, bool reorder, std::vector<Binding>* rows);

/// Plans a trivial-seed BGP's join order without executing anything: the
/// same order JoinBgp would choose for a top-level run — the DP search when
/// `opts.use_dp` and the BGP is small enough, the greedy reorderer when
/// `reorder`, source order otherwise. Returns source indexes in execution
/// order. The EXPLAIN path pairs this with AnnotateBgpPlan (planner.h) to
/// render the plan shape without touching any data.
std::vector<int> PlanBgpOrder(const rdf::Graph& graph,
                              const std::vector<CompiledPattern>& patterns,
                              const JoinOptions& opts, bool reorder);

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_BGP_H_
