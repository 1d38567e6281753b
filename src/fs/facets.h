#ifndef RDFA_FS_FACETS_H_
#define RDFA_FS_FACETS_H_

#include <map>
#include <string>
#include <vector>

#include "fs/hierarchy.h"
#include "fs/state.h"
#include "rdf/rdfs.h"

namespace rdfa::fs {

/// One clickable value under a property facet, with its count
/// (|Restrict(E, p : v)|) — count information is characteristic (ii) of the
/// model (§1.4): only non-empty transitions are shown.
struct ValueCount {
  rdf::TermId value = rdf::kNoTermId;
  size_t count = 0;
};

/// A property facet: the property (with direction), its applicable values
/// and counts, computed as Joins(E, p) (§5.3.2, Alg. 5 part C).
struct PropertyFacet {
  PropRef prop;
  std::vector<ValueCount> values;
};

/// A class transition marker with its count and (lazily expandable)
/// applicable subclasses (§5.3.2, Fig 5.4 a/b).
struct ClassFacet {
  rdf::TermId cls = rdf::kNoTermId;
  size_t count = 0;
  std::vector<ClassFacet> children;
};

/// Computes the transition markers of a state per the paper's Algorithm 5.
class FacetComputer {
 public:
  /// Builds the class forest of `schema` once; `graph` and `vocab` must
  /// outlive the computer.
  FacetComputer(const rdf::Graph& graph, const rdf::SchemaView& schema,
                const rdf::Vocab& vocab);

  /// Class-based markers over `ext`: the applicable classes arranged by the
  /// transitive reduction of <=cl, with instance counts inside `ext`.
  /// Classes with zero count are pruned (never-empty-results guarantee).
  std::vector<ClassFacet> ClassFacets(const Extension& ext) const;

  /// Property-based markers: one facet per property applicable to `ext`
  /// (plus inverse facets when `include_inverse`), each listing
  /// Joins(ext, p) values with counts.
  std::vector<PropertyFacet> PropertyFacets(const Extension& ext,
                                            bool include_inverse = false) const;

  /// Path expansion (Fig 5.5 b): the transition markers at the end of
  /// `path` starting from `ext` — M_k = Joins(...Joins(ext, p1)..., pk) —
  /// with counts of how many members of `ext` reach each value, in
  /// ascending id order. One forward pass: v is reachable from e iff
  /// e is in RestrictByPath(ext, path, v), so counting each member's
  /// distinct end values gives exactly |RestrictByPath(ext, path, v)|.
  PropertyFacet PathFacet(const Extension& ext,
                          const std::vector<PropRef>& path) const;

  /// The set of members of `ext` that reach `value` through `path`
  /// (back-propagation M'_i of Eq. 5.1).
  Extension RestrictByPath(const Extension& ext,
                           const std::vector<PropRef>& path,
                           rdf::TermId value) const;

  /// Members of `ext` whose numeric value at the end of `path` lies within
  /// [min, max] (the range-filter button of §5.1 Example 3).
  Extension RestrictByRange(const Extension& ext,
                            const std::vector<PropRef>& path,
                            std::optional<double> min,
                            std::optional<double> max) const;

 private:
  size_t CountInstances(rdf::TermId cls, const Extension& ext) const;
  void FillClassFacet(const HierarchyNode& node, const Extension& ext,
                      std::vector<ClassFacet>* out) const;

  const rdf::Graph& graph_;
  const rdf::Vocab& vocab_;
  std::vector<HierarchyNode> class_forest_;
};

/// One interval of a bucketed numeric facet (Fig 5.4 d, "grouping of
/// values"): the half-open range [lo, hi) and how many focus objects carry
/// a value inside it. The last bucket is closed ([lo, hi]).
struct ValueBucket {
  double lo = 0;
  double hi = 0;
  size_t count = 0;
};

/// Groups the numeric values of a facet into `n_buckets` equal-width
/// intervals — what the GUI shows when a facet has too many distinct
/// values. Object counts are summed from the facet's value counts;
/// non-numeric values are ignored. Returns an empty vector when no value is
/// numeric.
std::vector<ValueBucket> BucketNumericFacet(const rdf::Graph& graph,
                                            const PropertyFacet& facet,
                                            size_t n_buckets);

/// Groups dateTime/date facet values by year -> summed count (the Year
/// grouping the transform button of §5.1 offers).
std::map<int, size_t> BucketDateFacetByYear(const rdf::Graph& graph,
                                            const PropertyFacet& facet);

/// How the GUI orders a facet's value list.
enum class FacetOrder {
  kCountDescending,  ///< most populated first (the default FS display)
  kValueAscending,   ///< numeric when possible, else lexical
};

/// Sorts `facet->values` in place.
void SortFacetValues(const rdf::Graph& graph, FacetOrder order,
                     PropertyFacet* facet);

/// Truncates the value list to the `k` entries that survive `order`,
/// returning how many were cut (the GUI shows "... n more" — or hands the
/// full list to the spiral layout when it is too long).
size_t TruncateFacetValues(const rdf::Graph& graph, FacetOrder order,
                           size_t k, PropertyFacet* facet);

}  // namespace rdfa::fs

#endif  // RDFA_FS_FACETS_H_
