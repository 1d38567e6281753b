#include "translator/translator.h"

#include <vector>

#include "common/string_util.h"
#include "rdf/namespaces.h"

namespace rdfa::translator {

using hifun::AggOp;
using hifun::AttrExpr;
using hifun::AttrExprPtr;
using hifun::Query;
using hifun::Restriction;
using rdf::Term;

namespace {

/// Builds the WHERE/SELECT fragments for one query. All state of the
/// translation algorithm (fresh variables, accumulated patterns, filters)
/// lives here.
class Translation {
 public:
  Result<std::string> Run(const Query& q) {
    if (q.ops.empty()) {
      return Status::InvalidArgument("HIFUN query has no aggregate op");
    }

    std::vector<std::string> roots;
    if (!q.root_class.empty()) roots.push_back(q.root_class);
    for (const std::string& extra : q.extra_root_classes) {
      if (!extra.empty()) roots.push_back(extra);
    }
    if (roots.size() == 1) {
      patterns_.push_back("?x1 <" + std::string(rdf::rdfns::kType) + "> <" +
                          roots[0] + "> .");
    } else if (roots.size() > 1) {
      // §4.1.2 multi-root context: D is the union of the root classes.
      std::string unions;
      for (size_t i = 0; i < roots.size(); ++i) {
        if (i > 0) unions += " UNION ";
        unions += "{ ?x1 <" + std::string(rdf::rdfns::kType) + "> <" +
                  roots[i] + "> . }";
      }
      patterns_.push_back(unions);
    }

    // Grouping expression -> retVars + patterns (Alg. 1 step 1, Alg. 2/3).
    std::vector<std::string> ret_exprs;
    std::string group_tail_expr;  // right(g) of the last scalar component
    if (q.grouping != nullptr) {
      RDFA_ASSIGN_OR_RETURN(ret_exprs, TranslateTopLevel(*q.grouping));
      if (!ret_exprs.empty()) group_tail_expr = ret_exprs.back();
    }

    // Measuring expression (Alg. 1 step 2).
    std::string measure_expr;  // right(m) or ?x1 for identity
    AttrExprPtr measure =
        q.measuring != nullptr ? q.measuring : AttrExpr::Identity();
    if (measure->kind == AttrExpr::Kind::kPair) {
      return Status::InvalidArgument("the measuring function must be scalar");
    }
    RDFA_ASSIGN_OR_RETURN(measure_expr, TranslateScalar(*measure, "?x1"));

    // Restrictions (Alg. 1 steps 1.1-2.2, Alg. 4 for paths).
    for (const Restriction& r : q.group_restrictions) {
      RDFA_RETURN_NOT_OK(
          TranslateRestriction(r, q.grouping, group_tail_expr));
    }
    for (const Restriction& r : q.measure_restrictions) {
      RDFA_RETURN_NOT_OK(TranslateRestriction(r, measure, measure_expr));
    }

    // Aggregate ops (Alg. 1 step 4).
    std::vector<std::string> agg_exprs;
    for (size_t i = 0; i < q.ops.size(); ++i) {
      std::string alias = "?agg" + std::to_string(i + 1);
      agg_exprs.push_back("(" + std::string(AggOpName(q.ops[i])) + "(" +
                          measure_expr + ") AS " + alias + ")");
    }

    // Assemble.
    std::string sparql = "SELECT ";
    for (const std::string& e : ret_exprs) sparql += e + " ";
    for (const std::string& e : agg_exprs) sparql += e + " ";
    sparql += "\nWHERE {\n";
    for (const std::string& p : patterns_) sparql += "  " + p + "\n";
    for (const std::string& f : filters_) sparql += "  FILTER(" + f + ") .\n";
    sparql += "}";
    if (!ret_exprs.empty()) {
      sparql += "\nGROUP BY";
      for (const std::string& e : ret_exprs) sparql += " " + e;
    }
    if (q.result_restriction.has_value()) {
      const auto& rr = *q.result_restriction;
      if (rr.op_index >= q.ops.size()) {
        return Status::InvalidArgument("result restriction op_index out of range");
      }
      sparql += "\nHAVING (" + std::string(AggOpName(q.ops[rr.op_index])) +
                "(" + measure_expr + ") " + rr.op + " " +
                FormatNumber(rr.value) + ")";
    }
    return sparql;
  }

 private:
  std::string FreshVar() { return "?x" + std::to_string(++var_counter_); }

  static std::string RenderTerm(const Term& t) { return t.ToNTriples(); }

  /// Top-level grouping translation: a pairing fans out from ?x1, each
  /// component contributing one returned expression (Alg. 2 Pairing /
  /// PairingOverCompositions).
  Result<std::vector<std::string>> TranslateTopLevel(const AttrExpr& attr) {
    std::vector<std::string> out;
    if (attr.kind == AttrExpr::Kind::kPair) {
      for (const AttrExprPtr& component : attr.args) {
        if (component->kind == AttrExpr::Kind::kPair) {
          RDFA_ASSIGN_OR_RETURN(std::vector<std::string> nested,
                                TranslateTopLevel(*component));
          for (std::string& e : nested) out.push_back(std::move(e));
        } else {
          RDFA_ASSIGN_OR_RETURN(std::string e,
                                TranslateScalar(*component, "?x1"));
          out.push_back(std::move(e));
        }
      }
      return out;
    }
    RDFA_ASSIGN_OR_RETURN(std::string e, TranslateScalar(attr, "?x1"));
    out.push_back(std::move(e));
    return out;
  }

  /// Scalar attribute translation (Alg. 2 Composition + Alg. 3 for derived
  /// attributes). Returns the "right" expression: a variable, or a built-in
  /// call wrapped around one.
  Result<std::string> TranslateScalar(const AttrExpr& attr,
                                      const std::string& from_var) {
    switch (attr.kind) {
      case AttrExpr::Kind::kIdentity:
        return from_var;
      case AttrExpr::Kind::kProperty: {
        // A hop after a derived step walks from a variable bound to the
        // derived value: a built-in call cannot be a triple's subject.
        std::string subject = from_var;
        if (subject.front() != '?') {
          subject = FreshVar();
          patterns_.push_back("BIND(" + from_var + " AS " + subject + ") .");
        }
        std::string right = FreshVar();
        patterns_.push_back(subject + " <" + attr.property + "> " + right +
                            " .");
        return right;
      }
      case AttrExpr::Kind::kCompose: {
        // Each step walks on from the previous step's expression; a derived
        // step translates its argument from there and wraps it (Alg. 3).
        std::string cur = from_var;
        for (const AttrExprPtr& step : attr.args) {
          RDFA_ASSIGN_OR_RETURN(cur, TranslateScalar(*step, cur));
        }
        return cur;
      }
      case AttrExpr::Kind::kDerived: {
        RDFA_ASSIGN_OR_RETURN(std::string inner,
                              TranslateScalar(*attr.args[0], from_var));
        return attr.function + "(" + inner + ")";
      }
      case AttrExpr::Kind::kPair:
        return Status::InvalidArgument(
            "pairing cannot appear nested inside a scalar position");
    }
    return Status::Internal("unhandled attribute kind");
  }

  /// Restriction translation (Alg. 1 steps 1.1/1.2 & 2.1/2.2; Alg. 4 lines
  /// 3-10 for restriction paths).
  Status TranslateRestriction(const Restriction& r, const AttrExprPtr& attr,
                              const std::string& attr_expr) {
    // `expr op value`, and for a range `&& expr <= upper` on the same
    // variable: one walk, both bounds.
    auto compare = [&](const std::string& expr) {
      std::string lhs = r.derived_function.empty()
                            ? expr
                            : r.derived_function + "(" + expr + ")";
      std::string out = lhs + " " + r.op + " " + RenderTerm(r.value);
      if (r.upper.has_value()) {
        out += " && " + lhs + " <= " + RenderTerm(*r.upper);
      }
      return out;
    };
    if (r.path.empty()) {
      if (attr != nullptr && attr->kind == AttrExpr::Kind::kPair) {
        return Status::InvalidArgument(
            "a restriction with an empty path cannot apply to a pairing");
      }
      // Constrains the attribute's own value.
      if (r.value.is_iri() && r.op == "=" && r.derived_function.empty()) {
        // Alg. 1 line 5: expressed as a triple pattern from the root.
        if (attr != nullptr && attr->kind == AttrExpr::Kind::kProperty) {
          patterns_.push_back("?x1 <" + attr->property + "> " +
                              RenderTerm(r.value) + " .");
          return Status::OK();
        }
        // Composed / derived attribute: constrain the right expression.
        filters_.push_back(attr_expr + " = " + RenderTerm(r.value));
        return Status::OK();
      }
      filters_.push_back(compare(attr_expr));
      return Status::OK();
    }
    // Restriction path: walk from the root (Alg. 4 Composition(rg.functions)).
    std::string cur = "?x1";
    for (size_t i = 0; i < r.path.size(); ++i) {
      bool last = i + 1 == r.path.size();
      if (last && r.value.is_iri() && r.op == "=" &&
          r.derived_function.empty()) {
        patterns_.push_back(cur + " <" + r.path[i] + "> " +
                            RenderTerm(r.value) + " .");
        return Status::OK();
      }
      std::string next = FreshVar();
      patterns_.push_back(cur + " <" + r.path[i] + "> " + next + " .");
      cur = next;
    }
    filters_.push_back(compare(cur));
    return Status::OK();
  }

  int var_counter_ = 1;  // ?x1 is the root
  std::vector<std::string> patterns_;
  std::vector<std::string> filters_;
};

}  // namespace

Result<std::string> TranslateToSparql(const Query& query) {
  Translation t;
  return t.Run(query);
}

}  // namespace rdfa::translator
