#include "analytics/session.h"

#include <optional>

#include "analytics/fco.h"
#include "common/trace.h"
#include "hifun/evaluator.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "translator/translator.h"

namespace rdfa::analytics {

using hifun::AttrExpr;
using hifun::AttrExprPtr;

AnalyticsSession::AnalyticsSession(rdf::Graph* graph, fs::EvalMode mode)
    : graph_(graph), fs_(graph, mode) {}

Status AnalyticsSession::ClickGroupBy(GroupingSpec spec) {
  if (spec.path.empty()) {
    return Status::InvalidArgument("a grouping needs a property path");
  }
  groupings_.push_back(std::move(spec));
  return Status::OK();
}

Status AnalyticsSession::RemoveGroupBy(size_t index) {
  if (index >= groupings_.size()) {
    return Status::InvalidArgument("no such grouping");
  }
  groupings_.erase(groupings_.begin() + static_cast<long>(index));
  return Status::OK();
}

Status AnalyticsSession::ClickAggregate(MeasureSpec spec) {
  if (spec.ops.empty()) {
    return Status::InvalidArgument("pick at least one aggregate function");
  }
  if (spec.path.empty()) {
    // COUNT over the items themselves: only COUNT makes sense.
    for (hifun::AggOp op : spec.ops) {
      if (op != hifun::AggOp::kCount) {
        return Status::InvalidArgument(
            "an empty measure path only supports COUNT");
      }
    }
  }
  measure_ = std::move(spec);
  return Status::OK();
}

void AnalyticsSession::SetResultRestriction(std::string op, double value,
                                            size_t op_index) {
  hifun::ResultRestriction rr;
  rr.op = std::move(op);
  rr.value = value;
  rr.op_index = op_index;
  result_restriction_ = rr;
}

void AnalyticsSession::ClearAnalytics() {
  groupings_.clear();
  measure_.reset();
  result_restriction_.reset();
}

namespace {

AttrExprPtr PathToAttr(const std::vector<std::string>& path) {
  std::vector<AttrExprPtr> hops;
  hops.reserve(path.size());
  for (const std::string& p : path) hops.push_back(AttrExpr::Property(p));
  return AttrExpr::Compose(std::move(hops));
}

}  // namespace

Result<hifun::Query> AnalyticsSession::BuildHifunQuery() const {
  if (!measure_.has_value()) {
    return Status::Precondition(
        "no aggregate chosen: click the sigma button on a facet first");
  }
  hifun::Query q;
  const fs::Intention& intent = fs_.current().intent;
  q.root_class = intent.root_class;

  // FS conditions restrict the item set E (rg of §5.1 examples), one
  // restriction each: a range's two bounds test one value of the path, as
  // the FS range click does, while two value clicks on one path stay two
  // restrictions ("has both values").
  for (const fs::Condition& c : intent.conditions) {
    hifun::Restriction r;
    r.path.reserve(c.path.size());
    for (const fs::PropRef& p : c.path) {
      if (p.inverse) {
        return Status::Unsupported(
            "inverse properties in an analytic restriction are not "
            "supported; refocus the session instead");
      }
      r.path.push_back(p.iri);
    }
    if (c.kind == fs::Condition::Kind::kValue) {
      r.value = c.value;
    } else {
      r.op = c.min.has_value() ? ">=" : "<=";
      r.value = rdf::Term::Double(c.min.has_value() ? *c.min : *c.max);
      if (c.min.has_value() && c.max.has_value()) {
        r.upper = rdf::Term::Double(*c.max);
      }
    }
    q.group_restrictions.push_back(std::move(r));
  }

  // Grouping expression: the pairing of all G-button choices.
  if (!groupings_.empty()) {
    std::vector<AttrExprPtr> components;
    components.reserve(groupings_.size());
    for (const GroupingSpec& g : groupings_) {
      AttrExprPtr attr = PathToAttr(g.path);
      if (!g.derived_function.empty()) {
        attr = AttrExpr::Derived(g.derived_function, std::move(attr));
      }
      components.push_back(std::move(attr));
    }
    q.grouping = AttrExpr::Pair(std::move(components));
  }

  // Measuring expression.
  q.measuring = measure_->path.empty() ? AttrExpr::Identity()
                                       : PathToAttr(measure_->path);
  q.ops = measure_->ops;
  q.result_restriction = result_restriction_;
  return q;
}

Result<std::string> AnalyticsSession::BuildSparql() const {
  RDFA_ASSIGN_OR_RETURN(hifun::Query q, BuildHifunQuery());
  return translator::TranslateToSparql(q);
}

Result<AnswerFrame> AnalyticsSession::Execute() {
  std::optional<TraceSpan> parse_span;
  parse_span.emplace(ctx_.tracer(), "parse");
  RDFA_ASSIGN_OR_RETURN(std::string sparql, BuildSparql());
  RDFA_ASSIGN_OR_RETURN(sparql::ParsedQuery parsed,
                        sparql::ParseQuery(sparql));
  parse_span.reset();
  sparql::Executor exec(graph_);
  exec.set_thread_count(thread_count_);
  exec.set_use_dp(use_dp_);
  exec.set_query_context(ctx_);
  Result<sparql::ResultTable> table = exec.Execute(parsed);
  exec_stats_ = exec.stats();
  RDFA_RETURN_NOT_OK(table.status());
  answer_ = AnswerFrame(std::move(table).value());
  return answer_;
}

Result<AnswerFrame> AnalyticsSession::ExecuteDirect() const {
  RDFA_ASSIGN_OR_RETURN(hifun::Query q, BuildHifunQuery());
  hifun::Evaluator eval(*graph_);
  RDFA_ASSIGN_OR_RETURN(sparql::ResultTable table, eval.Evaluate(q, ctx_));
  return AnswerFrame(std::move(table));
}

Result<std::string> AnalyticsSession::ApplyTransform(
    TransformKind kind, const std::vector<std::string>& path,
    const std::string& feature_name) {
  const std::string feature = "urn:rdfa:feature#" + feature_name;
  const std::string& root = fs_.current().intent.root_class;
  Result<size_t> added = Status::Internal("unset");
  switch (kind) {
    case TransformKind::kValue:
      if (path.size() != 1) {
        return Status::InvalidArgument("kValue takes one property");
      }
      added = FcoValue(graph_, root, path[0], feature);
      break;
    case TransformKind::kExists:
      if (path.size() != 1) {
        return Status::InvalidArgument("kExists takes one property");
      }
      added = FcoExists(graph_, root, path[0], feature);
      break;
    case TransformKind::kCount:
      if (path.size() != 1) {
        return Status::InvalidArgument("kCount takes one property");
      }
      added = FcoCount(graph_, root, path[0], feature);
      break;
    case TransformKind::kPathCount:
      if (path.size() != 2) {
        return Status::InvalidArgument("kPathCount takes two properties");
      }
      added = FcoPathCount(graph_, root, path[0], path[1], feature);
      break;
    case TransformKind::kPathMaxFreq:
      if (path.size() != 2) {
        return Status::InvalidArgument("kPathMaxFreq takes two properties");
      }
      added = FcoPathValueMaxFreq(graph_, root, path[0], path[1], feature);
      break;
  }
  RDFA_RETURN_NOT_OK(added.status());
  return feature;
}

Result<std::unique_ptr<AnalyticsSession>> AnalyticsSession::ExploreAnswer(
    rdf::Graph* af_graph) const {
  if (answer_.table().num_columns() == 0) {
    return Status::Precondition("execute an analytic query first");
  }
  RDFA_ASSIGN_OR_RETURN(size_t added, answer_.LoadAsDataset(af_graph));
  (void)added;
  auto session = std::make_unique<AnalyticsSession>(af_graph);
  RDFA_RETURN_NOT_OK(session->fs().ClickClass(AnswerFrame::RowClassIri()));
  return session;
}

}  // namespace rdfa::analytics
