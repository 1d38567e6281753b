#ifndef RDFA_SPARQL_PLANNER_H_
#define RDFA_SPARQL_PLANNER_H_

#include <set>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "sparql/bgp.h"

namespace rdfa::sparql {

/// Largest BGP the exhaustive DP join-order search enumerates (2^n subset
/// states). Above this the order-aware greedy fallback plans instead.
inline constexpr size_t kMaxDpPatterns = 8;

/// Whether the DP search orders a BGP of `n` patterns: one pattern has no
/// order to choose, and above kMaxDpPatterns the greedy fallback plans.
inline bool DpSearches(size_t n) { return n > 1 && n <= kMaxDpPatterns; }

/// One step of an annotated left-deep plan, 1:1 with the execution-ordered
/// pattern vector.
struct PlannedStep {
  /// 'S' — seed scan (the first pattern of a DP-seeded run, enumerated in
  ///       `perm`'s order).
  /// 'A' — adaptive: a star, hash or NLJ step, decided at run time.
  char strategy = 'A';
  /// The permutation the seed scans, or the one an 'A' step's probe of its
  /// constant and bound lanes reads (a hash build may scan another).
  rdf::Graph::Perm perm = rdf::Graph::kPermSPO;
  double est_rows = 0;  ///< estimated intermediate rows after this step
  double est_cost = 0;  ///< estimated index rows this step decodes
};

/// An annotated left-deep BGP plan: the interesting order (the variable the
/// intermediate stays sorted by — set by the seed scan's permutation and
/// preserved by every later step, since all of them extend rows in input
/// order) plus per-step strategy and permutation choices. Derived
/// deterministically from the execution order alone, so EXPLAIN and the
/// run it plans, given the same order, annotate the same plan.
struct BgpPlan {
  std::vector<PlannedStep> steps;  ///< one per pattern, execution order
  int head_slot = -1;              ///< interesting-order binding slot
  bool used_dp = false;            ///< order came from the DP search
  double est_cost = 0;             ///< sum of step costs
  /// Explainable plan shape (strategies, permutations, expected rows) keyed
  /// by the patterns' source indexes; surfaced via ExecStats::ToJson and
  /// the bench plan dumps.
  std::string ToJson(const std::vector<int>& source_order) const;
};

/// Human-readable permutation name ("SPO", "POS" or "OSP").
const char* PermName(rdf::Graph::Perm perm);

/// Observability counters one DP search fills (when the caller passes a
/// non-null out-param): how much of the state space it walked, shown as
/// args on the "dp-plan" trace span. That span also times the search for
/// the rdfa_dp_plan_ms histogram (PlanBgpOrder).
struct DpStats {
  size_t states_considered = 0;  ///< (subset, head) states relaxed into
  size_t states_expanded = 0;    ///< valid states whose extensions were tried
};

/// DP join-order search (DPsize over subsets) for BGPs of up to
/// kMaxDpPatterns patterns: enumerates every connected left-deep order and
/// every first-pattern sort order, costing steps in estimated index rows
/// decoded — NLJ as rows x calibrated per-row fanout, a step with a bound
/// join key as the cheaper of that and its build width — and returns the
/// cheapest order as source indexes. Deterministic: ties keep the
/// earliest-enumerated state. Returns source order unless
/// DpSearches(patterns.size()); callers handle larger BGPs with the greedy
/// fallback. `stats` (nullable) receives the search-space counters.
std::vector<int> PlanBgpOrderDp(const rdf::Graph& graph,
                                const std::vector<CompiledPattern>& patterns,
                                DpStats* stats = nullptr);

/// Annotates an execution-ordered pattern sequence. A `seeded` run (a
/// DP-seeded top-level run, JoinBgp) gets an interesting order: the first
/// pattern's free lane that is the only bound lane of the most downstream
/// steps (ties prefer the s/p/o lane order, zero such steps means no
/// preferred order), and the first step is an 'S' seed scan sorted on it,
/// so those steps' probes walk their keys in order and reuse a repeated
/// key's matches. An unseeded run's first step is an 'A' probe of its
/// constant and bound lanes (head_slot -1, the 3-arg ChoosePerm). Every
/// later step is 'A'. `bound` holds the slots the run's input rows already
/// bind (a run after a FILTER split, a BIND or a VALUES); a seeded run has
/// none.
BgpPlan AnnotateBgpPlan(const rdf::Graph& graph,
                        const std::vector<CompiledPattern>& ordered,
                        bool seeded, std::set<int> bound = {});

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_PLANNER_H_
