#ifndef RDFA_HIFUN_ATTR_EXPR_H_
#define RDFA_HIFUN_ATTR_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"

namespace rdfa::hifun {

/// An attribute expression of the HIFUN functional algebra (dissertation
/// §2.5, §4.2.4): an arrow from the analysis-context root built from
/// properties with *composition* (f2 ∘ f1), *pairing* (f1 ⊗ f2) and
/// *derived attributes* (a built-in function such as MONTH applied to the
/// value of another attribute).
struct AttrExpr;
using AttrExprPtr = std::shared_ptr<AttrExpr>;

struct AttrExpr {
  enum class Kind {
    kIdentity,  ///< the identity function (used as measure for COUNT)
    kProperty,  ///< a direct attribute: one RDF property IRI
    kCompose,   ///< composition; components in application order (first
                ///< applied first, i.e. f_k ∘ … ∘ f_1 stores [f_1 … f_k])
    kPair,      ///< pairing ⊗; components are parallel arrows from the root
    kDerived,   ///< function(arg): a derived attribute (SPARQL built-in)
  };

  Kind kind = Kind::kIdentity;
  std::string property;             ///< kProperty: the property IRI
  std::string function;             ///< kDerived: upper-case function name
  std::vector<AttrExprPtr> args;    ///< components / single derived argument

  static AttrExprPtr Identity();
  static AttrExprPtr Property(std::string iri);
  /// Composition in application order: Compose({f1, f2}) is f2 ∘ f1.
  static AttrExprPtr Compose(std::vector<AttrExprPtr> in_application_order);
  static AttrExprPtr Pair(std::vector<AttrExprPtr> components);
  static AttrExprPtr Derived(std::string function, AttrExprPtr arg);

  /// Human-readable form mirroring the paper's notation, e.g.
  /// "brand ∘ delivers" or "(takesPlaceAt ⊗ delivers)".
  std::string ToString() const;
};

/// A restriction `/E` on a grouping or measuring expression (§4.2.2,
/// §4.2.5 general case): an optional property path followed by a comparison
/// with a URI or literal. An empty path restricts the attribute's own
/// value. `derived_function`, when set, is applied to the path end before
/// comparing — the paper's full example restricts by `month = 01`
/// (FILTER(MONTH(?x6) = 01)). `upper`, when set, makes it a range: the
/// one value the path reaches must also be <= upper (a faceted-search range
/// click, `op` ">=" and `value` its lower bound).
struct Restriction {
  std::vector<std::string> path;  ///< property IRIs walked from the attribute
  std::string derived_function;   ///< "" or YEAR/MONTH/DAY/... on the value
  std::string op = "=";           ///< "=", "!=", "<", "<=", ">", ">="
  rdf::Term value;
  std::optional<rdf::Term> upper;  ///< inclusive upper bound of a range

  std::string ToString() const;
};

/// The supported aggregate (reduction) operations.
enum class AggOp { kSum, kAvg, kCount, kMin, kMax };

const char* AggOpName(AggOp op);

}  // namespace rdfa::hifun

#endif  // RDFA_HIFUN_ATTR_EXPR_H_
