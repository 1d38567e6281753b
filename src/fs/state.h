#ifndef RDFA_FS_STATE_H_
#define RDFA_FS_STATE_H_

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/gallop.h"
#include "rdf/graph.h"

namespace rdfa::fs {

/// A property reference with direction: `inverse` follows the property from
/// object to subject (p^-1 of §5.3.1).
struct PropRef {
  std::string iri;
  bool inverse = false;

  friend bool operator==(const PropRef& a, const PropRef& b) {
    return a.iri == b.iri && a.inverse == b.inverse;
  }
};

/// The formal restriction/join operations of the FS model (§5.3.1).
/// An extension is a set of interned term ids held as a sorted,
/// duplicate-free vector: every operation below takes and returns that
/// form, so membership is a merge or a binary search, never a tree probe.
using Extension = std::vector<rdf::TermId>;

/// Sorts and dedupes `ids` into an extension.
Extension MakeExtension(std::vector<rdf::TermId> ids);

/// Membership test (binary search).
inline bool Contains(const Extension& ext, rdf::TermId id) {
  return std::binary_search(ext.begin(), ext.end(), id);
}

/// Membership probe for ascending queries against an extension: each
/// Contains() resumes where the previous one stopped (galloping forward), so
/// probing a sorted id stream — a POS or SPO range scan — is a merge.
class ExtensionProbe {
 public:
  explicit ExtensionProbe(const Extension& ext)
      : it_(ext.begin()), end_(ext.end()) {}

  /// Precondition: `id` is >= every id probed before.
  bool Contains(rdf::TermId id) {
    it_ = GallopPartition(it_, end_, [id](rdf::TermId x) { return x < id; });
    return it_ != end_ && *it_ == id;
  }

 private:
  Extension::const_iterator it_;
  Extension::const_iterator end_;
};

/// Restrict(E, p : v) = { e in E | (e, p, v) in inst(p) }.
Extension Restrict(const rdf::Graph& graph, const Extension& ext,
                   const PropRef& p, rdf::TermId v);

/// Restrict(E, p : vset).
Extension RestrictSet(const rdf::Graph& graph, const Extension& ext,
                      const PropRef& p, const Extension& vset);

/// Restrict(E, c) = { e in E | e in inst(c) } (rdf:type match; assumes the
/// RDFS closure has been materialized if subclass semantics are wanted).
Extension RestrictClass(const rdf::Graph& graph, const Extension& ext,
                        rdf::TermId cls);

/// Joins(E, p) = { v | exists e in E with (e, p, v) in inst(p) }.
Extension Joins(const rdf::Graph& graph, const Extension& ext,
                const PropRef& p);

/// One accumulated filter of a state's intention: a property path from the
/// focus ending in either a concrete value or a numeric range.
struct Condition {
  enum class Kind { kValue, kRange };
  Kind kind = Kind::kValue;
  std::vector<PropRef> path;  ///< length >= 1
  rdf::Term value;            ///< kValue
  std::optional<double> min;  ///< kRange (inclusive)
  std::optional<double> max;  ///< kRange (inclusive)

  std::string ToString() const;
};

/// The intention of a state: a query whose answer is the extension
/// (§5.2.1). Expressible in SPARQL per Table 5.1.
struct Intention {
  std::string root_class;  ///< IRI; empty in the initial state s0
  std::vector<Condition> conditions;

  /// SPARQL SELECT computing the extension (Table 5.1 / 5.2 style).
  std::string ToSparql() const;
  std::string ToString() const;
};

/// One state of the interaction: extension + intention (§5.2.1).
struct State {
  Extension ext;
  Intention intent;
};

}  // namespace rdfa::fs

#endif  // RDFA_FS_STATE_H_
