#ifndef RDFA_SPARQL_EXECUTOR_H_
#define RDFA_SPARQL_EXECUTOR_H_

#include <string_view>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "sparql/ast.h"
#include "sparql/bgp.h"
#include "sparql/exec_stats.h"
#include "sparql/expr_eval.h"
#include "sparql/result_table.h"

namespace rdfa::sparql {

/// Evaluates parsed queries against one graph.
///
/// The graph is held mutably because evaluation may intern freshly computed
/// literals (BIND, aggregates, projection expressions) into its term table;
/// no triples are ever added by SELECT/ASK evaluation.
class Executor {
 public:
  /// `reorder_joins` toggles the greedy selectivity-based BGP reordering;
  /// `push_filters` toggles early filter application once a filter's
  /// variables are certainly bound. Both are ablation knobs (defaults on).
  /// `threads` is the morsel-parallelism budget (<=1 = serial; parallel
  /// results are byte-identical to serial, see DESIGN.md threading model).
  explicit Executor(rdf::Graph* graph, bool reorder_joins = true,
                    bool push_filters = true, int threads = 1)
      : graph_(graph),
        reorder_joins_(reorder_joins),
        push_filters_(push_filters),
        threads_(threads < 1 ? 1 : threads) {}

  /// Adjusts the thread budget for subsequent queries.
  void set_thread_count(int threads) { threads_ = threads < 1 ? 1 : threads; }
  int thread_count() const { return threads_; }

  /// Join strategy for subsequent queries: kAdaptive (default) chooses per
  /// pattern between index NLJ and the order-preserving hash join (plus
  /// planner-v2 merge steps under use_dp); kNestedLoop forces the NLJ test
  /// oracle. Either yields byte-identical results.
  void set_join_strategy(JoinStrategy strategy) { join_strategy_ = strategy; }
  JoinStrategy join_strategy() const { return join_strategy_; }

  /// Planner-v2 DP join ordering (default off): replaces the greedy
  /// reorderer with an exhaustive subset-DP search for top-level BGPs of up
  /// to kMaxDpPatterns patterns, and annotates each run with an explainable
  /// plan (stats().plan_shapes). Result bytes for a given plan are
  /// unchanged; only join order / permutation choices move.
  void set_use_dp(bool on) { use_dp_ = on; }
  bool use_dp() const { return use_dp_; }

  /// Installs the deadline/cancellation context for subsequent queries
  /// (copies share cancellation state with the caller's handle). The
  /// default context is unlimited. A tripped context unwinds evaluation to
  /// a DeadlineExceeded/Cancelled Status at the next morsel or join-stage
  /// boundary; stats() then holds the partial ExecStats of the aborted run
  /// with `aborted`/`abort_stage` set.
  void set_query_context(QueryContext ctx) { ctx_ = std::move(ctx); }
  const QueryContext& query_context() const { return ctx_; }

  /// Statistics of the most recent Execute() call (Select/Ask/... called
  /// directly accumulate into the same struct; Execute resets it first).
  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Plan-cache hooks. ReplayJoinOrders installs previously captured BGP
  /// join orders — one vector per BGP join run, consumed positionally in
  /// evaluation order by subsequent Execute() calls, bypassing the greedy
  /// reorderer (a shape mismatch falls back to it). CaptureJoinOrders
  /// records the orders an execution actually chooses into `*out`. Orders
  /// affect join cost only, never result bytes; both hooks accept nullptr
  /// to detach. The pointees must outlive the Execute() calls.
  void ReplayJoinOrders(const std::vector<std::vector<int>>* orders) {
    replay_orders_ = orders;
  }
  void CaptureJoinOrders(std::vector<std::vector<int>>* out) {
    if (out != nullptr) out->clear();
    capture_orders_ = out;
  }

  Result<ResultTable> Select(const SelectQuery& query);
  Result<bool> Ask(const AskQuery& query);
  /// Instantiates the CONSTRUCT template into `*out`; returns the number of
  /// triples added.
  Result<size_t> Construct(const ConstructQuery& query, rdf::Graph* out);

  /// DESCRIBE: writes the Concise Bounded Description of every named
  /// resource (and every binding of the DESCRIBE variables) into `*out`;
  /// returns the number of triples added.
  Result<size_t> Describe(const DescribeQuery& query, rdf::Graph* out);

  /// Dispatches on the query form. ASK yields a 1x1 table with column "ask".
  Result<ResultTable> Execute(const ParsedQuery& query);

  /// EXPLAIN: plans the query's top-level BGP runs without executing
  /// anything (no data rows are touched, only GraphStats and the term
  /// table). Each contiguous run of triple patterns in the WHERE clause is
  /// compiled, ordered exactly as Execute() would order it (DP search,
  /// greedy reorderer, or source order, per the executor's knobs), and
  /// annotated into a plan shape. Returns a JSON object:
  ///   {"form":"select","use_dp":bool,"strategy":"adaptive","threads":N,
  ///    "bgps":[{"dp":...,"head_slot":...,"steps":[...]}]}
  /// Freezes the graph's indexes (same eager build as Execute).
  std::string ExplainJson(const ParsedQuery& query);

  /// Triples added/removed by an update.
  struct UpdateStats {
    size_t inserted = 0;
    size_t deleted = 0;
  };

  /// Applies a SPARQL Update request to the graph. For DELETE WHERE /
  /// DELETE-INSERT-WHERE, all bindings are computed first, then deletes
  /// apply before inserts (SPARQL 1.1 semantics). Templates instantiated
  /// with unbound variables are skipped.
  Result<UpdateStats> Update(const UpdateRequest& request);

 private:
  Result<std::vector<Binding>> EvalPattern(const GraphPattern& pattern,
                                           VarTable* vars,
                                           std::vector<Binding> seed);

  /// Upper bound on BGP join runs captured per query: keeps plan entries
  /// for EXISTS-heavy queries (one run per probed row) from ballooning.
  /// Runs past the cap just re-run the greedy reorderer.
  static constexpr size_t kMaxCachedBgpOrders = 64;

  rdf::Graph* graph_;
  bool reorder_joins_;
  bool push_filters_;
  int threads_ = 1;
  JoinStrategy join_strategy_ = JoinStrategy::kAdaptive;
  bool use_dp_ = false;
  ExecStats stats_;
  QueryContext ctx_;
  const std::vector<std::vector<int>>* replay_orders_ = nullptr;
  std::vector<std::vector<int>>* capture_orders_ = nullptr;
  size_t bgp_seq_ = 0;
};

/// Parses and executes `text` in one call.
Result<ResultTable> ExecuteQueryString(
    rdf::Graph* graph, std::string_view text,
    const rdf::PrefixMap* prefixes = nullptr);

/// Parses and applies an update request in one call.
Result<Executor::UpdateStats> ExecuteUpdateString(
    rdf::Graph* graph, std::string_view text,
    const rdf::PrefixMap* prefixes = nullptr);

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_EXECUTOR_H_
