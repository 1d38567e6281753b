#include "hifun/evaluator.h"

#include <deque>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/string_util.h"
#include "common/trace.h"
#include "hifun/context.h"
#include "sparql/value.h"

namespace rdfa::hifun {

using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;
using sparql::Value;

namespace {

/// FN(input) for a derived attribute; nullopt when it has no value (MONTH
/// of a non-date, an unknown function).
std::optional<Term> ApplyDerived(const std::string& function,
                                 const Term& input) {
  static const char* const kDateParts[] = {"YEAR", "MONTH", "DAY", "HOURS"};
  for (int c = 0; c < 4; ++c) {
    if (function != kDateParts[c]) continue;
    auto part = rdf::DateTimeComponent(input.lexical(), c);
    if (!part.has_value()) return std::nullopt;
    return Term::Integer(*part);
  }
  if (function == "STR") return Term::Literal(input.lexical());
  if (function == "UCASE") return Term::Literal(ToUpperAscii(input.lexical()));
  if (function == "LCASE") return Term::Literal(ToLowerAscii(input.lexical()));
  return std::nullopt;
}

/// One step of a lowered walk: a hop along a property, a derived function
/// on the running value, a restriction's test of the value (no value when
/// it fails), or an error reported when a walk reaches it.
struct Step {
  enum class Kind { kHop, kDerived, kTest, kFail } kind;
  std::string name;  ///< the property IRI, the function or the operator
  TermId property;   ///< kHop: looked up once; kNoTermId if absent
  rdf::Graph::ProbeCursor cursor;           ///< kHop: subjects mostly ascend
  std::unordered_map<TermId, TermId> memo;  ///< kDerived: input -> output
  Status fail;                              ///< kFail
  Value value;                 ///< kTest: the operator's right-hand side
  std::optional<Value> upper;  ///< kTest: a range's inclusive upper bound
};
using Walk = std::vector<Step>;

/// `lhs op rhs`; incomparable values do not match.
Result<bool> Holds(const Value& lhs, const std::string& op, const Value& rhs) {
  if (op == "=" || op == "!=") {
    auto eq = Value::Equals(lhs, rhs);
    return eq.has_value() && *eq == (op == "=");
  }
  auto c = Value::Compare(lhs, rhs);
  if (!c.has_value()) return false;
  if (op == "<") return *c < 0;
  if (op == "<=") return *c <= 0;
  if (op == ">") return *c > 0;
  if (op == ">=") return *c >= 0;
  return Status::InvalidArgument("unknown restriction operator " + op);
}

/// Lowers attributes to walks once per query and walks them on ids. A value
/// is a dictionary id or, for a term a derived function computed, a code
/// past the ids the query started with (equal terms share one code).
/// kNoTermId is "no value": the item is skipped.
class Walker {
 public:
  explicit Walker(const rdf::Graph& graph)
      : graph_(graph), base_(static_cast<TermId>(graph.terms().size())) {}

  /// Identity adds nothing, a composition its components in application
  /// order, a derived attribute its argument and then the function.
  void Lower(const AttrExpr& attr, Walk* walk) const {
    switch (attr.kind) {
      case AttrExpr::Kind::kIdentity:
        return;
      case AttrExpr::Kind::kProperty:
        return Add(Step::Kind::kHop, attr.property, walk);
      case AttrExpr::Kind::kCompose:
        for (const AttrExprPtr& a : attr.args) Lower(*a, walk);
        return;
      case AttrExpr::Kind::kDerived:
        Lower(*attr.args[0], walk);
        return Add(Step::Kind::kDerived, attr.function, walk);
      case AttrExpr::Kind::kPair:
        return Add(Step::Kind::kFail, "", walk,
                   Status::Internal("pairing is not a scalar attribute"));
    }
  }

  /// A restriction on `attr` walks the path from the item, or with an
  /// empty path the attribute itself, then the derived function, if any,
  /// and ends in its test.
  Walk Lower(const AttrExprPtr& attr, const Restriction& r) const {
    Walk walk;
    if (!r.path.empty() || attr == nullptr) {
      for (const std::string& p : r.path) Add(Step::Kind::kHop, p, &walk);
    } else if (attr->kind == AttrExpr::Kind::kPair) {
      Add(Step::Kind::kFail, "", &walk,
          Status::InvalidArgument(
              "a restriction with an empty path cannot apply to a pairing"));
    } else {
      Lower(*attr, &walk);
    }
    if (!r.derived_function.empty()) {
      Add(Step::Kind::kDerived, r.derived_function, &walk);
    }
    Add(Step::Kind::kTest, r.op, &walk);
    walk.back().value = Value::FromTerm(r.value);
    if (r.upper.has_value()) walk.back().upper = Value::FromTerm(*r.upper);
    return walk;
  }

  /// Sets *out to the value `item` reaches, or kNoTermId when a step finds
  /// none or a test fails. A multi-valued hop is a Precondition.
  Status Run(Walk& walk, TermId item, TermId* out) {
    TermId cur = item;
    for (size_t i = 0; i < walk.size() && cur != kNoTermId; ++i) {
      Step& s = walk[i];
      if (s.kind == Step::Kind::kFail) return s.fail;
      if (s.kind == Step::Kind::kTest) {
        const Value lhs = value(cur);
        RDFA_ASSIGN_OR_RETURN(bool holds, Holds(lhs, s.name, s.value));
        if (holds && s.upper.has_value()) {
          RDFA_ASSIGN_OR_RETURN(holds, Holds(lhs, "<=", *s.upper));
        }
        if (!holds) cur = kNoTermId;
        continue;
      }
      if (s.kind == Step::Kind::kDerived) {
        auto [it, fresh] = s.memo.try_emplace(cur, kNoTermId);
        std::optional<Term> t;
        if (fresh && (t = ApplyDerived(s.name, term(cur)))) {
          it->second = Computed(std::move(*t));
        }
        cur = it->second;
        continue;
      }
      // A computed value continues the walk only as a resource of the graph.
      const TermId subject = cur < base_ ? cur : graph_.terms().Find(term(cur));
      size_t n = 0;
      cur = kNoTermId;
      auto first = [&](const rdf::TripleId& t) { cur = n++ ? cur : t.o; };
      if (s.property == kNoTermId || subject == kNoTermId) continue;
      s.cursor.ForEachMatch(subject, s.property, kNoTermId, first);
      if (n <= 1) continue;
      return Status::Precondition(
          "property <" + s.name + "> is multi-valued on an item; apply a "
          "feature-creation operator (Table 4.1) before analysis");
    }
    *out = cur;
    return Status::OK();
  }

  const Term& term(TermId v) const {
    return v < base_ ? graph_.terms().Get(v) : computed_[v - base_];
  }
  Value value(TermId v) const {
    return v < base_ ? Value::OfId(graph_.terms(), v) : Value::Ref(term(v));
  }

 private:
  void Add(Step::Kind kind, const std::string& name, Walk* walk,
           Status fail = Status::OK()) const {
    TermId p = kind == Step::Kind::kHop ? graph_.terms().FindIri(name)
                                        : kNoTermId;
    walk->push_back(Step{kind, name, p, rdf::Graph::ProbeCursor(graph_), {},
                         std::move(fail), Value(), std::nullopt});
  }

  TermId Computed(Term t) {
    auto [it, fresh] = codes_.try_emplace(
        t.ToNTriples(), base_ + static_cast<TermId>(computed_.size()));
    if (fresh) computed_.push_back(std::move(t));
    return it->second;
  }

  const rdf::Graph& graph_;
  const TermId base_;
  std::unordered_map<std::string, TermId> codes_;  ///< by N-Triples
  std::deque<Term> computed_;  ///< code - base_ -> term; never moves
};

/// The tuple components of a grouping: pairs multiply out.
void FlattenComponents(const AttrExprPtr& attr,
                       std::vector<AttrExprPtr>* out) {
  if (attr->kind == AttrExpr::Kind::kPair) {
    for (const AttrExprPtr& a : attr->args) FlattenComponents(a, out);
  } else {
    out->push_back(attr);
  }
}

}  // namespace

Result<sparql::ResultTable> Evaluator::Evaluate(const Query& query,
                                                const QueryContext& ctx) const {
  if (query.ops.empty()) {
    return Status::InvalidArgument("a HIFUN query needs >=1 aggregate op");
  }
  TraceSpan eval_span(ctx.tracer(), "hifun-evaluate");
  RDFA_RETURN_NOT_OK(ctx.Check("hifun-admission"));
  std::vector<std::string> roots = {query.root_class};
  roots.insert(roots.end(), query.extra_root_classes.begin(),
               query.extra_root_classes.end());

  // Every attribute and restriction is lowered once.
  std::vector<AttrExprPtr> group_components;
  if (query.grouping != nullptr) {
    FlattenComponents(query.grouping, &group_components);
  }
  AttrExprPtr measure =
      query.measuring != nullptr ? query.measuring : AttrExpr::Identity();
  Walker walker(graph_);
  std::vector<Walk> group_walks(group_components.size());
  for (size_t i = 0; i < group_components.size(); ++i) {
    walker.Lower(*group_components[i], &group_walks[i]);
  }
  Walk measure_walk;
  walker.Lower(*measure, &measure_walk);
  std::vector<Walk> conditions;
  for (const Restriction& r : query.group_restrictions) {
    conditions.push_back(walker.Lower(query.grouping, r));
  }
  for (const Restriction& r : query.measure_restrictions) {
    conditions.push_back(walker.Lower(measure, r));
  }

  // Grouping + measuring: restrictions on both sides restrict the item set
  // E; an item that passes them and has a key and a measure value joins
  // its group. Items are visited in id order, so each group's measure
  // sequence (and thus SUM/AVG rounding) is fixed.
  std::map<std::vector<TermId>, std::vector<TermId>> groups;
  std::vector<TermId> key(group_walks.size());
  auto add_item = [&](TermId item) -> Status {
    for (Walk& c : conditions) {
      TermId v = kNoTermId;
      RDFA_RETURN_NOT_OK(walker.Run(c, item, &v));
      if (v == kNoTermId) return Status::OK();
    }
    for (size_t i = 0; i < group_walks.size(); ++i) {
      RDFA_RETURN_NOT_OK(walker.Run(group_walks[i], item, &key[i]));
      if (key[i] == kNoTermId) return Status::OK();
    }
    TermId m = kNoTermId;
    RDFA_RETURN_NOT_OK(walker.Run(measure_walk, item, &m));
    if (m != kNoTermId) groups[key].push_back(m);
    return Status::OK();
  };

  const std::vector<TermId> items = RootItems(graph_, roots);
  {
    TraceSpan gm_span(ctx.tracer(), "hifun-group-measure");
    gm_span.Arg("items", static_cast<uint64_t>(items.size()));
    for (size_t i = 0; i < items.size(); ++i) {
      if (i % 256 == 0) RDFA_RETURN_NOT_OK(ctx.Check("hifun-group-measure"));
      RDFA_RETURN_NOT_OK(add_item(items[i]));
    }
    gm_span.Arg("groups", static_cast<uint64_t>(groups.size()));
  }

  // Reduction, in the N-Triples order of the group keys.
  TraceSpan red_span(ctx.tracer(), "hifun-reduction");
  std::vector<std::string> columns;
  for (const AttrExprPtr& g : group_components) {
    columns.push_back(g->ToString());
  }
  for (AggOp op : query.ops) columns.push_back(AggOpName(op));
  sparql::ResultTable table(std::move(columns));

  using Group = std::pair<const std::vector<TermId>, std::vector<TermId>>;
  std::map<std::vector<std::string>, const Group*> ordered;
  for (const Group& g : groups) {
    std::vector<std::string> nt;
    for (TermId v : g.first) nt.push_back(walker.term(v).ToNTriples());
    ordered.emplace(std::move(nt), &g);
  }

  size_t reduced = 0;
  for (const auto& [unused, group] : ordered) {
    if (reduced++ % 64 == 0) RDFA_RETURN_NOT_OK(ctx.Check("hifun-reduction"));
    const std::vector<TermId>& values = group->second;
    std::vector<Term> row;
    for (TermId v : group->first) row.push_back(walker.term(v));
    std::vector<double> agg_values;
    for (AggOp op : query.ops) {
      double agg = static_cast<double>(values.size());
      Term out = Term::Integer(static_cast<int64_t>(values.size()));
      if (op == AggOp::kMin || op == AggOp::kMax) {
        TermId best = values[0];
        for (TermId v : values) {
          auto c = Value::Compare(walker.value(v), walker.value(best));
          if (c.has_value() && (op == AggOp::kMin ? *c < 0 : *c > 0)) best = v;
        }
        agg = walker.value(best).AsNumeric().value_or(0);
        out = walker.term(best);
      } else if (op != AggOp::kCount) {
        double sum = 0;
        for (TermId v : values) {
          auto n = walker.value(v).AsNumeric();
          if (!n.has_value()) {
            return Status::TypeError("non-numeric measure value under " +
                                     std::string(AggOpName(op)));
          }
          sum += *n;
        }
        agg = op == AggOp::kAvg ? sum / static_cast<double>(values.size())
                                : sum;
        out = agg == static_cast<int64_t>(agg) && op != AggOp::kAvg
                  ? Term::Integer(static_cast<int64_t>(agg))
                  : Term::Double(agg);
      }
      agg_values.push_back(agg);
      row.push_back(std::move(out));
    }

    if (query.result_restriction.has_value()) {
      const ResultRestriction& rr = *query.result_restriction;
      if (rr.op_index >= agg_values.size()) {
        return Status::InvalidArgument("result restriction op_index out of range");
      }
      double v = agg_values[rr.op_index];
      bool keep = (rr.op == ">" && v > rr.value) ||
                  (rr.op == ">=" && v >= rr.value) ||
                  (rr.op == "<" && v < rr.value) ||
                  (rr.op == "<=" && v <= rr.value) ||
                  (rr.op == "=" && v == rr.value) ||
                  (rr.op == "!=" && v != rr.value);
      if (!keep) continue;
    }
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace rdfa::hifun
