#include "hifun/evaluator.h"

#include <map>
#include <optional>

#include "common/string_util.h"
#include "common/trace.h"
#include "hifun/context.h"
#include "rdf/namespaces.h"
#include "sparql/value.h"

namespace rdfa::hifun {

using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;
using sparql::Value;

namespace {

/// Outcome of evaluating an attribute on one item: a value, "item skipped"
/// (missing), or a hard error (multi-valued).
struct EvalOutcome {
  std::optional<Term> value;
  Status status = Status::OK();
  bool missing = false;
};

EvalOutcome SingleObject(const rdf::Graph& graph, TermId item,
                         const std::string& property) {
  EvalOutcome out;
  TermId p = graph.terms().FindIri(property);
  if (p == kNoTermId) {
    out.missing = true;
    return out;
  }
  std::vector<rdf::TripleId> matches = graph.Match(item, p, kNoTermId);
  if (matches.empty()) {
    out.missing = true;
    return out;
  }
  if (matches.size() > 1) {
    out.status = Status::Precondition(
        "property <" + property +
        "> is multi-valued on an item; apply a feature-creation operator "
        "(Table 4.1) before analysis");
    return out;
  }
  out.value = graph.terms().Get(matches[0].o);
  return out;
}

Term ApplyDerived(const std::string& function, const Term& input,
                  bool* ok) {
  *ok = true;
  int component = -1;
  if (function == "YEAR") component = 0;
  else if (function == "MONTH") component = 1;
  else if (function == "DAY") component = 2;
  else if (function == "HOURS") component = 3;
  if (component >= 0) {
    auto c = rdf::DateTimeComponent(input.lexical(), component);
    if (!c.has_value()) {
      *ok = false;
      return Term();
    }
    return Term::Integer(*c);
  }
  if (function == "STR") return Term::Literal(input.lexical());
  if (function == "UCASE") return Term::Literal(ToUpperAscii(input.lexical()));
  if (function == "LCASE") return Term::Literal(ToLowerAscii(input.lexical()));
  *ok = false;
  return Term();
}

/// Evaluates a (non-pair) attribute expression on `item`, returning a
/// single value.
EvalOutcome EvalScalar(const rdf::Graph& graph, TermId item,
                       const AttrExpr& attr) {
  switch (attr.kind) {
    case AttrExpr::Kind::kIdentity: {
      EvalOutcome out;
      out.value = graph.terms().Get(item);
      return out;
    }
    case AttrExpr::Kind::kProperty:
      return SingleObject(graph, item, attr.property);
    case AttrExpr::Kind::kCompose: {
      TermId cur = item;
      EvalOutcome out;
      for (size_t i = 0; i < attr.args.size(); ++i) {
        EvalOutcome step = EvalScalar(graph, cur, *attr.args[i]);
        if (!step.status.ok() || step.missing) return step;
        if (i + 1 == attr.args.size()) return step;
        // Continue the walk: the intermediate value must be a resource in
        // the graph.
        TermId next = graph.terms().Find(*step.value);
        if (next == kNoTermId) {
          out.missing = true;
          return out;
        }
        cur = next;
      }
      out.missing = true;
      return out;
    }
    case AttrExpr::Kind::kDerived: {
      EvalOutcome inner = EvalScalar(graph, item, *attr.args[0]);
      if (!inner.status.ok() || inner.missing) return inner;
      bool ok = false;
      Term derived = ApplyDerived(attr.function, *inner.value, &ok);
      if (!ok) {
        inner.value.reset();
        inner.missing = true;
        return inner;
      }
      inner.value = derived;
      return inner;
    }
    case AttrExpr::Kind::kPair: {
      EvalOutcome out;
      out.status = Status::Internal("pairing is not a scalar attribute");
      return out;
    }
  }
  return EvalOutcome{};
}

/// Flattens an attribute expression into tuple components (pairs multiply
/// out, everything else is one component).
void FlattenComponents(const AttrExprPtr& attr,
                       std::vector<AttrExprPtr>* out) {
  if (attr->kind == AttrExpr::Kind::kPair) {
    for (const AttrExprPtr& a : attr->args) FlattenComponents(a, out);
  } else {
    out->push_back(attr);
  }
}

/// `lhs op rhs` for a restriction operator; incomparable values do not
/// match.
Result<bool> Holds(const Value& lhs, const std::string& op, const Term& rhs) {
  Value r = Value::FromTerm(rhs);
  if (op == "=" || op == "!=") {
    auto eq = Value::Equals(lhs, r);
    if (!eq.has_value()) return false;
    return op == "=" ? *eq : !*eq;
  }
  auto c = Value::Compare(lhs, r);
  if (!c.has_value()) return false;
  if (op == "<") return *c < 0;
  if (op == "<=") return *c <= 0;
  if (op == ">") return *c > 0;
  if (op == ">=") return *c >= 0;
  return Status::InvalidArgument("unknown restriction operator " + op);
}

/// Checks one restriction against an item: one walk to the value, then
/// `op value` and, for a range, `<= upper` on that same value.
Result<bool> CheckRestriction(const rdf::Graph& graph, TermId item,
                              const AttrExprPtr& attr, const Restriction& r) {
  std::optional<Term> value;
  if (r.path.empty()) {
    AttrExprPtr target = attr != nullptr ? attr : AttrExpr::Identity();
    if (target->kind == AttrExpr::Kind::kPair) {
      return Status::InvalidArgument(
          "a restriction with an empty path cannot apply to a pairing");
    }
    EvalOutcome out = EvalScalar(graph, item, *target);
    if (!out.status.ok()) return out.status;
    if (out.missing) return false;
    value = out.value;
  } else {
    std::vector<AttrExprPtr> hops;
    hops.reserve(r.path.size());
    for (const std::string& p : r.path) hops.push_back(AttrExpr::Property(p));
    AttrExprPtr path_expr = AttrExpr::Compose(std::move(hops));
    EvalOutcome out = EvalScalar(graph, item, *path_expr);
    if (!out.status.ok()) return out.status;
    if (out.missing) return false;
    value = out.value;
  }

  if (!r.derived_function.empty()) {
    bool ok = false;
    Term derived = ApplyDerived(r.derived_function, *value, &ok);
    if (!ok) return false;  // e.g. MONTH of a non-date: no match
    value = derived;
  }

  Value lhs = Value::FromTerm(*value);
  RDFA_ASSIGN_OR_RETURN(bool holds, Holds(lhs, r.op, r.value));
  if (!holds || !r.upper.has_value()) return holds;
  return Holds(lhs, "<=", *r.upper);
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
  for (const std::string& extra : query.extra_root_classes) {
    roots.push_back(extra);
  }

  std::vector<AttrExprPtr> group_components;
  if (query.grouping != nullptr) {
    FlattenComponents(query.grouping, &group_components);
  }
  AttrExprPtr measure =
      query.measuring != nullptr ? query.measuring : AttrExpr::Identity();

  // Grouping + measuring: restrictions on both sides restrict the item set
  // E; an item that passes them and has a key and a measure value joins
  // its group. Items are visited in id order, so each group's measure
  // sequence (and thus SUM/AVG rounding) is fixed.
  std::map<std::vector<std::string>, std::vector<Term>> groups;
  std::map<std::vector<std::string>, std::vector<Term>> group_keys;
  auto add_item = [&](TermId item) -> Status {
    for (const Restriction& r : query.group_restrictions) {
      RDFA_ASSIGN_OR_RETURN(bool ok,
                            CheckRestriction(graph_, item, query.grouping, r));
      if (!ok) return Status::OK();
    }
    for (const Restriction& r : query.measure_restrictions) {
      RDFA_ASSIGN_OR_RETURN(bool ok,
                            CheckRestriction(graph_, item, measure, r));
      if (!ok) return Status::OK();
    }
    std::vector<std::string> key;
    std::vector<Term> key_terms;
    for (const AttrExprPtr& g : group_components) {
      EvalOutcome o = EvalScalar(graph_, item, *g);
      RDFA_RETURN_NOT_OK(o.status);
      if (o.missing) return Status::OK();
      key.push_back(o.value->ToNTriples());
      key_terms.push_back(*o.value);
    }
    EvalOutcome m = EvalScalar(graph_, item, *measure);
    RDFA_RETURN_NOT_OK(m.status);
    if (m.missing) return Status::OK();
    groups[key].push_back(std::move(*m.value));
    group_keys.emplace(std::move(key), std::move(key_terms));
    return Status::OK();
  };

  const std::vector<TermId> items = RootItems(graph_, roots);
  std::optional<TraceSpan> gm_span;
  gm_span.emplace(ctx.tracer(), "hifun-group-measure");
  gm_span->Arg("items", static_cast<uint64_t>(items.size()));
  for (size_t i = 0; i < items.size(); ++i) {
    if (i % 256 == 0) RDFA_RETURN_NOT_OK(ctx.Check("hifun-group-measure"));
    RDFA_RETURN_NOT_OK(add_item(items[i]));
  }

  gm_span->Arg("groups", static_cast<uint64_t>(groups.size()));
  gm_span.reset();

  // Reduction.
  TraceSpan red_span(ctx.tracer(), "hifun-reduction");
  std::vector<std::string> columns;
  for (const AttrExprPtr& g : group_components) {
    columns.push_back(g->ToString());
  }
  for (AggOp op : query.ops) columns.push_back(AggOpName(op));
  sparql::ResultTable table(std::move(columns));

  size_t groups_since_check = 0;
  for (const auto& [key, values] : groups) {
    if (groups_since_check++ % 64 == 0) {
      RDFA_RETURN_NOT_OK(ctx.Check("hifun-reduction"));
    }
    std::vector<Term> row = group_keys[key];
    std::vector<double> agg_values;
    bool numeric_ok = true;
    for (AggOp op : query.ops) {
      if (op == AggOp::kCount) {
        agg_values.push_back(static_cast<double>(values.size()));
        row.push_back(Term::Integer(static_cast<int64_t>(values.size())));
        continue;
      }
      if (op == AggOp::kMin || op == AggOp::kMax) {
        const Term* best = &values[0];
        for (const Term& v : values) {
          auto c = Value::Compare(Value::FromTerm(v), Value::FromTerm(*best));
          if (c.has_value() &&
              ((op == AggOp::kMin && *c < 0) || (op == AggOp::kMax && *c > 0))) {
            best = &v;
          }
        }
        auto n = Value::FromTerm(*best).AsNumeric();
        agg_values.push_back(n.value_or(0));
        row.push_back(*best);
        continue;
      }
      double sum = 0;
      for (const Term& v : values) {
        auto n = Value::FromTerm(v).AsNumeric();
        if (!n.has_value()) {
          numeric_ok = false;
          break;
        }
        sum += *n;
      }
      if (!numeric_ok) {
        return Status::TypeError("non-numeric measure value under " +
                                 std::string(AggOpName(op)));
      }
      double result =
          op == AggOp::kAvg ? sum / static_cast<double>(values.size()) : sum;
      agg_values.push_back(result);
      if (result == static_cast<int64_t>(result) && op != AggOp::kAvg) {
        row.push_back(Term::Integer(static_cast<int64_t>(result)));
      } else {
        row.push_back(Term::Double(result));
      }
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
