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
#include "sparql/solution_table.h"

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
  /// index range scan per input row otherwise, and one star step for a run
  /// of constant-predicate patterns on a subject every row binds (bgp.cc).
  /// An NLJ step reuses the previous row's matches when the row's probe key
  /// repeats it, so input sorted on the join key probes each key once.
  kAdaptive,
  /// One index range scan per input row, everywhere — the test oracle.
  kNestedLoop,
};

/// Knobs and instrumentation for one JoinBgp call.
struct JoinOptions {
  /// Thread budget of the join's morsels (RunMorsels, common/thread_pool.h):
  /// <=1 runs serially; a parallel join is byte-identical to the serial one.
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
  /// Planner v2, engaged on top-level BGP runs: replaces the greedy
  /// reorderer with an exhaustive DP search over subsets (<= 8 patterns;
  /// greedy above that), costed from the calibrated GraphStats, and starts
  /// the run with a seed scan in the permutation AnnotateBgpPlan picks, so
  /// the intermediate comes out sorted on the plan's interesting order. The
  /// later steps are the same star, hash and NLJ steps as without it. When
  /// set, it overrides a false `reorder` flag — DP *is* the reorderer, so it
  /// is immune to source-order accidents. Orders only change performance,
  /// never the result set.
  bool use_dp = false;
  /// A top-level run (one all-unbound row) calls this
  /// between steps with the slots the steps so far bind, so the caller can
  /// run the FILTERs those slots make ready on `*rows` before later steps
  /// extend them. Filtering a row early drops exactly the extensions that
  /// filtering after the join would, and keeps the order of the rest.
  /// Seeded runs (OPTIONAL / UNION / EXISTS) never call it.
  std::function<void(const std::set<int>& bound)> after_step;
};

/// Extends every row of `*rows`, widened to `slot_count` slots, through all
/// `patterns` by index joins. Each step reads its input table in place and
/// appends the extended rows to a new one, so it allocates per table, not
/// per row. When `reorder` is set, patterns are greedily ordered by
/// estimated selectivity given the variables bound so far, a newly bound
/// subject's single-valued and filtering patterns first (the ablation
/// benchmark toggles this). Returns non-OK only when `opts.ctx` trips.
Status JoinBgp(const rdf::Graph& graph, std::vector<CompiledPattern> patterns,
               size_t slot_count, bool reorder, const JoinOptions& opts,
               SolutionTable* rows);

/// Plans a BGP run's join order without executing anything: the order
/// JoinBgp chooses for a run extending `rows` — the
/// DP search for a top-level run (one all-unbound row) under `opts.use_dp`
/// of a size DpSearches (planner.h), else the greedy reorderer from the
/// slots bound in the first row of `rows` when `reorder`, else source order.
/// Returns source indexes in execution order; `*used_dp` (nullable) reports
/// whether DP chose. EXPLAIN passes one row binding the slots the run's
/// input rows bind and pairs this with AnnotateBgpPlan (planner.h) to
/// render the plan shape without touching any data.
std::vector<int> PlanBgpOrder(const rdf::Graph& graph,
                              const std::vector<CompiledPattern>& patterns,
                              const JoinOptions& opts, bool reorder,
                              const SolutionTable& rows,
                              bool* used_dp = nullptr);

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_BGP_H_
