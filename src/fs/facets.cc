#include "fs/facets.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <unordered_map>

#include "sparql/value.h"

namespace rdfa::fs {

using rdf::kNoTermId;
using rdf::TermId;

namespace {

/// Walks single members along a property path, reusing its buffers across
/// members.
class PathWalker {
 public:
  PathWalker(const rdf::Graph& graph, const std::vector<PropRef>& path)
      : graph_(graph), first_hop_(graph) {
    for (const PropRef& p : path) {
      TermId pid = graph.terms().FindIri(p.iri);
      if (pid == kNoTermId) {
        known_ = false;
        return;
      }
      steps_.push_back({pid, p.inverse});
    }
  }

  /// False when a property of the path does not occur in the graph (then
  /// no member reaches anything).
  bool known() const { return known_; }

  /// The distinct values at the end of the path from `e`, ascending.
  /// Members walked in ascending order make the first hop's probes gallop.
  const std::vector<TermId>& Walk(TermId e) {
    out_.assign(1, e);
    if (steps_.empty()) return out_;
    Hop(0, &first_hop_, &out_);
    if (steps_.size() == 1) return out_;
    // The hops after the first depend only on the node the first one
    // reached, and members share those nodes (10k laptops, 200
    // manufacturers): the rest of the path is walked once per node.
    first_.swap(out_);
    out_.clear();
    for (TermId x : first_) {
      const std::vector<TermId>& ends = Rest(x);
      out_.insert(out_.end(), ends.begin(), ends.end());
    }
    if (first_.size() > 1) out_ = MakeExtension(std::move(out_));
    return out_;
  }

 private:
  /// Replaces `cur` (ascending, distinct) by its neighbours over step `i`,
  /// probing through `cursor`.
  void Hop(size_t i, rdf::Graph::ProbeCursor* cursor,
           std::vector<TermId>* cur) {
    const auto [pid, inverse] = steps_[i];
    next_.clear();
    for (TermId x : *cur) {
      if (!inverse) {
        cursor->ForEachMatch(x, pid, kNoTermId, [&](const rdf::TripleId& t) {
          next_.push_back(t.o);
        });
      } else {
        cursor->ForEachMatch(kNoTermId, pid, x, [&](const rdf::TripleId& t) {
          next_.push_back(t.s);
        });
      }
    }
    // One source's scan is already ascending and duplicate-free (SPO / POS
    // order, set semantics); the scans of several may overlap.
    if (cur->size() > 1) next_ = MakeExtension(std::move(next_));
    cur->swap(next_);
  }

  /// The end values reached from `x` over steps 1.., memoized.
  const std::vector<TermId>& Rest(TermId x) {
    auto [it, fresh] = rest_.try_emplace(x);
    if (fresh) {
      std::vector<TermId>& ends = it->second;
      ends.assign(1, x);
      for (size_t i = 1; i < steps_.size() && !ends.empty(); ++i) {
        rdf::Graph::ProbeCursor cursor(graph_);
        Hop(i, &cursor, &ends);
      }
    }
    return it->second;
  }

  const rdf::Graph& graph_;
  rdf::Graph::ProbeCursor first_hop_;
  std::vector<std::pair<TermId, bool>> steps_;  ///< (property, inverse)
  bool known_ = true;
  std::unordered_map<TermId, std::vector<TermId>> rest_;
  std::vector<TermId> out_;
  std::vector<TermId> first_;
  std::vector<TermId> next_;
};

std::optional<double> NumericValue(const rdf::Term& term) {
  return sparql::Value::FromTerm(term).AsNumeric();
}

/// Counts term ids on a dense tally indexed by id, so that only the
/// distinct ids get sorted (a facet's values repeat: 10k laptops reach 12
/// countries). The tally is all zero again after every call.
class IdTally {
 public:
  explicit IdTally(const rdf::Graph& graph) : tally_(graph.terms().size()) {}

  /// Each distinct id of [begin, end) with its number of occurrences,
  /// ascending by id.
  std::vector<ValueCount> Count(const TermId* begin, const TermId* end) {
    std::vector<TermId> distinct;
    for (const TermId* it = begin; it != end; ++it) {
      if (tally_[*it]++ == 0) distinct.push_back(*it);
    }
    std::sort(distinct.begin(), distinct.end());
    std::vector<ValueCount> out;
    out.reserve(distinct.size());
    for (TermId id : distinct) {
      out.push_back(ValueCount{id, tally_[id]});
      tally_[id] = 0;
    }
    return out;
  }
  std::vector<ValueCount> Count(const std::vector<TermId>& ids) {
    return Count(ids.data(), ids.data() + ids.size());
  }

 private:
  std::vector<uint32_t> tally_;
};

/// Member edges as two parallel columns: edge i is (props[i], values[i]).
struct Edges {
  std::vector<TermId> props;
  std::vector<TermId> values;
};

/// Appends one facet per property of `edges`, ascending by property, each
/// listing its values ascending with how many edges carry them.
void AppendPropertyFacets(const rdf::Graph& graph, const Edges& edges,
                          bool inverse, IdTally* tally,
                          std::vector<PropertyFacet>* out) {
  // Group the values by property (a counting sort on the property column),
  // then count each group.
  std::vector<ValueCount> props = tally->Count(edges.props);
  std::vector<size_t> group_end(props.size());
  for (size_t i = 0, offset = 0; i < props.size(); ++i) {
    group_end[i] = offset;  // start, until the scatter below advances it
    offset += props[i].count;
  }
  std::vector<TermId> grouped(edges.values.size());
  for (size_t i = 0; i < edges.props.size(); ++i) {
    size_t g = std::lower_bound(props.begin(), props.end(), edges.props[i],
                                [](const ValueCount& a, TermId p) {
                                  return a.value < p;
                                }) -
               props.begin();
    grouped[group_end[g]++] = edges.values[i];
  }
  for (size_t g = 0; g < props.size(); ++g) {
    PropertyFacet facet;
    facet.prop = PropRef{graph.terms().Get(props[g].value).lexical(), inverse};
    const TermId* end = grouped.data() + group_end[g];
    facet.values = tally->Count(end - props[g].count, end);
    out->push_back(std::move(facet));
  }
}

}  // namespace

FacetComputer::FacetComputer(const rdf::Graph& graph,
                             const rdf::SchemaView& schema,
                             const rdf::Vocab& vocab)
    : graph_(graph),
      vocab_(vocab),
      class_forest_(BuildClassForest(schema, schema.classes())) {}

size_t FacetComputer::CountInstances(TermId cls, const Extension& ext) const {
  // (?, type, cls) reads POS: instances arrive in ascending id order.
  size_t n = 0;
  ExtensionProbe probe(ext);
  graph_.ForEachMatch(kNoTermId, vocab_.type, cls,
                      [&](const rdf::TripleId& t) {
                        if (probe.Contains(t.s)) ++n;
                      });
  return n;
}

void FacetComputer::FillClassFacet(const HierarchyNode& node,
                                   const Extension& ext,
                                   std::vector<ClassFacet>* out) const {
  size_t count = CountInstances(node.term, ext);
  if (count == 0) return;  // prune empty transitions
  ClassFacet facet;
  facet.cls = node.term;
  facet.count = count;
  for (const HierarchyNode& child : node.children) {
    FillClassFacet(child, ext, &facet.children);
  }
  out->push_back(std::move(facet));
}

std::vector<ClassFacet> FacetComputer::ClassFacets(const Extension& ext) const {
  std::vector<ClassFacet> out;
  for (const HierarchyNode& root : class_forest_) {
    FillClassFacet(root, ext, &out);
  }
  return out;
}

std::vector<PropertyFacet> FacetComputer::PropertyFacets(
    const Extension& ext, bool include_inverse) const {
  // Applicable forward properties: predicates of triples whose subject is in
  // ext. A member has each (p, v) edge once, so the number of edges with
  // value v is the number of members with that value.
  Edges forward;
  Edges backward;
  // ext is ascending, so both scans gallop from member to member.
  rdf::Graph::ProbeCursor out_edges(graph_);
  rdf::Graph::ProbeCursor in_edges(graph_);
  for (TermId e : ext) {
    out_edges.ForEachMatch(e, kNoTermId, kNoTermId,
                           [&](const rdf::TripleId& t) {
                             if (t.p == vocab_.type ||
                                 t.p == vocab_.sub_class_of ||
                                 t.p == vocab_.sub_property_of ||
                                 t.p == vocab_.domain || t.p == vocab_.range) {
                               return;
                             }
                             forward.props.push_back(t.p);
                             forward.values.push_back(t.o);
                           });
    if (include_inverse) {
      in_edges.ForEachMatch(kNoTermId, kNoTermId, e,
                            [&](const rdf::TripleId& t) {
                              if (t.p == vocab_.type) return;
                              backward.props.push_back(t.p);
                              backward.values.push_back(t.s);
                            });
    }
  }
  std::vector<PropertyFacet> out;
  IdTally tally(graph_);
  AppendPropertyFacets(graph_, forward, false, &tally, &out);
  AppendPropertyFacets(graph_, backward, true, &tally, &out);
  return out;
}

PropertyFacet FacetComputer::PathFacet(
    const Extension& ext, const std::vector<PropRef>& path) const {
  PropertyFacet facet;
  if (path.empty()) return facet;
  facet.prop = path.back();
  PathWalker walker(graph_, path);
  if (!walker.known()) return facet;
  // Every member's distinct end values, then one count per value.
  std::vector<TermId> ends;
  for (TermId e : ext) {
    const std::vector<TermId>& reached = walker.Walk(e);
    ends.insert(ends.end(), reached.begin(), reached.end());
  }
  facet.values = IdTally(graph_).Count(ends);
  return facet;
}

Extension FacetComputer::RestrictByPath(const Extension& ext,
                                        const std::vector<PropRef>& path,
                                        TermId value) const {
  // Back-propagation of Eq. 5.1: S_k = {v}; S_{i-1} = the objects of M_{i-1}
  // reaching S_i via p_i. We walk backwards using inverse joins, then
  // intersect with ext.
  Extension cur = {value};
  for (size_t i = path.size(); i-- > 0;) {
    PropRef back = path[i];
    back.inverse = !back.inverse;
    cur = Joins(graph_, cur, back);
    if (cur.empty()) return {};
  }
  Extension out;
  std::set_intersection(ext.begin(), ext.end(), cur.begin(), cur.end(),
                        std::back_inserter(out));
  return out;
}

Extension FacetComputer::RestrictByRange(const Extension& ext,
                                         const std::vector<PropRef>& path,
                                         std::optional<double> min,
                                         std::optional<double> max) const {
  Extension out;
  PathWalker walker(graph_, path);
  if (!walker.known()) return out;
  for (TermId e : ext) {
    // Does e reach any in-range value through the path?
    for (TermId v : walker.Walk(e)) {
      auto num = NumericValue(graph_.terms().Get(v));
      if (!num.has_value()) continue;
      if (min.has_value() && *num < *min) continue;
      if (max.has_value() && *num > *max) continue;
      out.push_back(e);
      break;
    }
  }
  return out;
}

std::vector<ValueBucket> BucketNumericFacet(const rdf::Graph& graph,
                                            const PropertyFacet& facet,
                                            size_t n_buckets) {
  if (n_buckets == 0) return {};
  std::vector<std::pair<double, size_t>> numeric;
  for (const ValueCount& vc : facet.values) {
    auto n = NumericValue(graph.terms().Get(vc.value));
    if (n.has_value()) numeric.push_back({*n, vc.count});
  }
  if (numeric.empty()) return {};
  double lo = numeric[0].first, hi = numeric[0].first;
  for (const auto& [v, _] : numeric) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::vector<ValueBucket> buckets(n_buckets);
  double width = (hi - lo) / static_cast<double>(n_buckets);
  if (width == 0) width = 1;  // all values equal: everything in bucket 0
  for (size_t b = 0; b < n_buckets; ++b) {
    buckets[b].lo = lo + width * static_cast<double>(b);
    buckets[b].hi = lo + width * static_cast<double>(b + 1);
  }
  for (const auto& [v, count] : numeric) {
    size_t b = static_cast<size_t>((v - lo) / width);
    if (b >= n_buckets) b = n_buckets - 1;  // hi lands in the last bucket
    buckets[b].count += count;
  }
  return buckets;
}

void SortFacetValues(const rdf::Graph& graph, FacetOrder order,
                     PropertyFacet* facet) {
  // Decode every value's number once; the comparator only reads keys.
  struct Keyed {
    ValueCount vc;
    std::optional<double> num;
    const std::string* lexical;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(facet->values.size());
  for (const ValueCount& vc : facet->values) {
    const rdf::Term& t = graph.terms().Get(vc.value);
    keyed.push_back(Keyed{vc, NumericValue(t), &t.lexical()});
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const Keyed& a, const Keyed& b) {
                     if (order == FacetOrder::kCountDescending &&
                         a.vc.count != b.vc.count) {
                       return a.vc.count > b.vc.count;
                     }
                     // Tie-break (and kValueAscending): numeric when both
                     // parse, otherwise lexical on the display form.
                     if (a.num.has_value() && b.num.has_value()) {
                       return *a.num < *b.num;
                     }
                     return *a.lexical < *b.lexical;
                   });
  for (size_t i = 0; i < keyed.size(); ++i) facet->values[i] = keyed[i].vc;
}

size_t TruncateFacetValues(const rdf::Graph& graph, FacetOrder order,
                           size_t k, PropertyFacet* facet) {
  SortFacetValues(graph, order, facet);
  if (facet->values.size() <= k) return 0;
  size_t cut = facet->values.size() - k;
  facet->values.resize(k);
  return cut;
}

std::map<int, size_t> BucketDateFacetByYear(const rdf::Graph& graph,
                                            const PropertyFacet& facet) {
  std::map<int, size_t> out;
  for (const ValueCount& vc : facet.values) {
    const rdf::Term& t = graph.terms().Get(vc.value);
    if (!t.is_literal()) continue;
    auto year = sparql::DateTimeComponent(t.lexical(), 0);
    if (year.has_value()) out[*year] += vc.count;
  }
  return out;
}

}  // namespace rdfa::fs
