#ifndef RDFA_SPARQL_EXPR_EVAL_H_
#define RDFA_SPARQL_EXPR_EVAL_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rdf/term_table.h"
#include "sparql/ast.h"
#include "sparql/value.h"

namespace rdfa::sparql {

/// Maps variable names to dense slot indexes inside bindings.
class VarTable {
 public:
  /// Slot of `name`, allocating it if new.
  int IdOf(const std::string& name);
  /// Slot of `name` or -1 if never seen.
  int Find(const std::string& name) const;
  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::map<std::string, int> index_;
  std::vector<std::string> names_;
};

/// One solution row: slot -> TermId; kNoTermId means unbound.
using Binding = std::vector<rdf::TermId>;

/// Everything an expression needs at evaluation time. `terms` is mutable
/// because projection/BIND may intern freshly computed literals.
/// `agg_nodes` and `agg_values`, when set, supply one group's aggregate
/// values: agg_values[i] is the value of the aggregate node agg_nodes[i]
/// (matched by AST node identity). `exists_eval`, when set, evaluates
/// EXISTS { ... } subpatterns against the current row (wired up by the
/// executor; without it EXISTS yields an error value).
struct EvalContext {
  rdf::TermTable* terms = nullptr;
  const VarTable* vars = nullptr;
  const std::vector<const Expr*>* agg_nodes = nullptr;
  const Value* agg_values = nullptr;
  const std::function<bool(const GraphPattern&, const Binding&)>* exists_eval =
      nullptr;
};

/// Evaluates `expr` over `binding`. Evaluation errors and unbound variables
/// both yield Value::Unbound() (SPARQL type errors collapse to
/// false-in-filters, which is how the callers consume them). Term values
/// refer to dictionary entries and AST constants rather than copying them.
Value EvalExpr(const Expr& expr, const Binding& binding,
               const EvalContext& ctx);

/// An expression lowered once for evaluation over many rows: variables are
/// resolved to binding slots, constants decoded, operators turned into
/// enums. Lowered nodes share EvalExpr's semantics, node kind by node kind;
/// node kinds that are not lowered (EXISTS, aggregates, and the calls that
/// evaluate their arguments lazily: BOUND, COALESCE, IF) run EvalExpr on
/// their subtree. Eval(row, ctx) therefore equals EvalExpr(expr, row, ctx)
/// as long as `vars` resolves the expression's variables as ctx.vars does,
/// i.e. no variable is added between lowering and evaluation. The
/// expression must outlive the lowered form.
class CompiledExpr {
 public:
  CompiledExpr(const Expr& expr, const VarTable& vars);

  Value Eval(const Binding& row, const EvalContext& ctx) const {
    return EvalNode(root_, row, ctx);
  }

  /// Eval(row, ctx).EffectiveBool(), the verdict of a FILTER or HAVING.
  /// A comparison of two slots or constants that are numbers is answered
  /// from the dictionary's decoded values, and !, && and || combine such
  /// answers, with no Value built; every other node falls back to Eval.
  std::optional<bool> Test(const Binding& row, const EvalContext& ctx) const {
    return TestNode(root_, row, ctx);
  }

  /// The binding slot read when the expression is a bare variable (-1 when
  /// the variable was never bound); nullopt for any other expression.
  std::optional<int> VariableSlot() const {
    if (nodes_[root_].kind != Kind::kSlot) return std::nullopt;
    return nodes_[root_].slot;
  }

 private:
  enum class Kind : uint8_t {
    kSlot, kConst, kUnary, kLogic, kBinary, kIn, kCall, kInterp
  };
  struct Node {
    Kind kind = Kind::kInterp;
    uint8_t op = 0;            ///< operator enum (expr_eval.cc) of kUnary,
                               ///< kLogic and kBinary nodes
    int slot = -1;             ///< kSlot: binding slot, -1 if never bound
    std::vector<int> args;     ///< child nodes
    const Expr* expr = nullptr;  ///< kIn / kCall / kInterp source node
    Value constant;            ///< kConst
  };

  int Lower(const Expr& e, const VarTable& vars);
  Value EvalNode(int n, const Binding& row, const EvalContext& ctx) const;
  std::optional<bool> TestNode(int n, const Binding& row,
                               const EvalContext& ctx) const;
  // A kSlot or kConst node's number: false for other nodes, unbound slots
  // and values that are not numbers.
  bool LeafNumber(int n, const Binding& row, const EvalContext& ctx,
                  double* out) const;
  // A child's value: constants by reference, anything else into *scratch.
  const Value& Operand(int n, const Binding& row, const EvalContext& ctx,
                       Value* scratch) const;

  std::vector<Node> nodes_;
  int root_ = 0;
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_EXPR_EVAL_H_
