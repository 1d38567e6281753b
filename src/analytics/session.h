#ifndef RDFA_ANALYTICS_SESSION_H_
#define RDFA_ANALYTICS_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analytics/answer_frame.h"
#include "common/query_context.h"
#include "common/status.h"
#include "fs/session.h"
#include "hifun/query.h"
#include "sparql/bgp.h"
#include "sparql/exec_stats.h"

namespace rdfa::analytics {

/// One grouping choice made with the G button: a (forward) property path
/// from the focus, optionally wrapped in a derived-attribute function
/// (e.g. YEAR of releaseDate — the transform button of §5.1).
struct GroupingSpec {
  std::vector<std::string> path;  ///< property IRIs, length >= 1
  std::string derived_function;   ///< "" or upper-case fn name (YEAR, ...)
};

/// The measure chosen with the Σ button plus the aggregate functions to
/// apply (several may be ticked at once, Fig 6.2).
struct MeasureSpec {
  std::vector<std::string> path;  ///< empty path = COUNT of the items
  std::vector<hifun::AggOp> ops;
};

/// The paper's core contribution (§5): a faceted-search session *extended
/// with analytics actions*. The FS part scopes the analysis context (the
/// extension E = ctx.Ext); the G/Σ buttons pick the grouping and measuring
/// functions; executing synthesizes the HIFUN query of §5.1, translates it
/// to SPARQL (§4.2) and fills the Answer Frame. Reloading the AF as a new
/// dataset yields HAVING and unbounded nesting (§5.3.3).
class AnalyticsSession {
 public:
  /// `graph` must outlive the session.
  explicit AnalyticsSession(rdf::Graph* graph,
                            fs::EvalMode mode = fs::EvalMode::kNative);

  /// The embedded faceted-search session (clicks, facets, Back, ...).
  fs::Session& fs() { return fs_; }
  const fs::Session& fs() const { return fs_; }

  /// Morsel-parallelism budget for Execute (<=1 = serial; parallel answers
  /// are byte-identical to serial). ExecuteDirect is always serial.
  void set_thread_count(int threads) {
    thread_count_ = threads < 1 ? 1 : threads;
  }
  int thread_count() const { return thread_count_; }

  /// Planner-v2 DP join ordering (default off; see Executor::set_use_dp).
  void set_use_dp(bool on) { use_dp_ = on; }
  bool use_dp() const { return use_dp_; }

  /// Deadline/cancellation context for Execute/ExecuteDirect. The default
  /// context never trips; install one with a deadline (or cancel it from
  /// another thread) to bound the next executions. Checked at morsel and
  /// stage boundaries; a trip unwinds to DeadlineExceeded/Cancelled with
  /// the partial ExecStats preserved in last_exec_stats().
  void set_query_context(QueryContext ctx) { ctx_ = std::move(ctx); }
  const QueryContext& query_context() const { return ctx_; }

  /// Execution statistics of the most recent Execute() (SPARQL path).
  const sparql::ExecStats& last_exec_stats() const { return exec_stats_; }

  // --- the analytics buttons -------------------------------------------
  /// G button on the facet reached by `spec.path` (§5.2.2: gE' = gE + f).
  Status ClickGroupBy(GroupingSpec spec);
  /// Removes a previously selected grouping (the "remove some of them"
  /// dialog of §5.1 GUI extensions).
  Status RemoveGroupBy(size_t index);
  /// Σ button: chooses the measure and its aggregate function(s).
  Status ClickAggregate(MeasureSpec spec);
  /// Restriction on the final answer (HAVING, §4.2.3), applied to the
  /// `op_index`-th aggregate.
  void SetResultRestriction(std::string op, double value, size_t op_index = 0);
  void ClearAnalytics();

  const std::vector<GroupingSpec>& groupings() const { return groupings_; }
  const std::optional<MeasureSpec>& measure() const { return measure_; }

  // --- query synthesis and execution -------------------------------------
  /// Synthesizes the HIFUN query of the current state: the FS intention
  /// contributes the root class and the restrictions; the button choices
  /// contribute gE, mE and opE.
  Result<hifun::Query> BuildHifunQuery() const;

  /// Translates the synthesized query to SPARQL (§4.2.5).
  Result<std::string> BuildSparql() const;

  /// Executes via the SPARQL pipeline and fills the Answer Frame.
  Result<AnswerFrame> Execute();

  /// Executes via the direct HIFUN evaluator (reference semantics; used by
  /// the equivalence tests and the ablation bench).
  Result<AnswerFrame> ExecuteDirect() const;

  /// §5.3.3: loads the current answer into `*af_graph` as a fresh dataset
  /// and returns a new session over it, whose further restrictions express
  /// HAVING / nested analytic queries. `af_graph` must outlive the returned
  /// session.
  Result<std::unique_ptr<AnalyticsSession>> ExploreAnswer(
      rdf::Graph* af_graph) const;

  /// The most recent Execute/ExecuteDirect answer.
  const AnswerFrame& answer() const { return answer_; }

  /// The graph this session analyzes (outlives the session by contract).
  rdf::Graph* graph() const { return graph_; }

  /// Installs an externally produced answer — e.g. a cached
  /// materialization — as the current Answer Frame, as if Execute() had
  /// just returned it. Exec stats are zeroed: nothing executed.
  void InstallAnswer(AnswerFrame answer) {
    answer_ = std::move(answer);
    exec_stats_ = sparql::ExecStats{};
  }

  /// §5.1 "Special cases": the transform button next to a facet. Applies a
  /// feature-creation operator over the current root class to repair a
  /// non-functional / partial attribute (or derive a new one) and returns
  /// the minted feature IRI, ready for ClickGroupBy/ClickAggregate.
  /// `path` is 1 property for kValue/kExists/kCount, 2 for kPathMaxFreq
  /// and kPathCount.
  enum class TransformKind { kValue, kExists, kCount, kPathCount,
                             kPathMaxFreq };
  Result<std::string> ApplyTransform(TransformKind kind,
                                     const std::vector<std::string>& path,
                                     const std::string& feature_name);

 private:
  rdf::Graph* graph_;
  fs::Session fs_;
  std::vector<GroupingSpec> groupings_;
  std::optional<MeasureSpec> measure_;
  std::optional<hifun::ResultRestriction> result_restriction_;
  AnswerFrame answer_;
  int thread_count_ = 1;
  bool use_dp_ = false;
  QueryContext ctx_;
  sparql::ExecStats exec_stats_;
};

}  // namespace rdfa::analytics

#endif  // RDFA_ANALYTICS_SESSION_H_
