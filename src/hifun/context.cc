#include "hifun/context.h"

#include <algorithm>
#include <set>

#include "rdf/namespaces.h"

namespace rdfa::hifun {

using rdf::kNoTermId;
using rdf::TermId;

std::vector<TermId> RootItems(const rdf::Graph& graph,
                              const std::vector<std::string>& root_classes) {
  const rdf::TermTable& terms = graph.terms();
  std::vector<TermId> items;
  bool any_root = false;
  for (const std::string& root : root_classes) {
    if (root.empty()) continue;
    any_root = true;
    TermId type = terms.FindIri(rdf::rdfns::kType);
    TermId cls = terms.FindIri(root);
    if (type != kNoTermId && cls != kNoTermId) {
      graph.ForEachMatch(kNoTermId, type, cls,
                         [&](const rdf::TripleId& t) { items.push_back(t.s); });
    }
  }
  if (!any_root) {
    for (const rdf::TripleId& t : graph.triples()) items.push_back(t.s);
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

AnalysisContext::AnalysisContext(const rdf::Graph& graph,
                                 std::string root_class)
    : AnalysisContext(graph, std::vector<std::string>{std::move(root_class)}) {
}

AnalysisContext::AnalysisContext(const rdf::Graph& graph,
                                 const std::vector<std::string>& root_classes)
    : root_class_(root_classes.empty() ? "" : root_classes.front()),
      items_(RootItems(graph, root_classes)) {
  const rdf::TermTable& terms = graph.terms();
  // Candidate attributes: properties used by items of D.
  std::set<TermId> props;
  TermId type = terms.FindIri(rdf::rdfns::kType);
  for (TermId item : items_) {
    graph.ForEachMatch(item, kNoTermId, kNoTermId,
                       [&](const rdf::TripleId& t) {
                         if (t.p != type) props.insert(t.p);
                       });
  }
  for (TermId p : props) candidates_.push_back(terms.Get(p).lexical());
}

AttributeReport AnalysisContext::Check(const rdf::Graph& graph,
                                       const std::string& property) const {
  AttributeReport report;
  report.property = property;
  report.items = items_.size();
  TermId p = graph.terms().FindIri(property);
  for (TermId item : items_) {
    size_t n = (p == kNoTermId) ? 0 : graph.CountMatch(item, p, kNoTermId);
    if (n == 0) {
      ++report.missing;
    } else {
      ++report.with_value;
      if (n > 1) ++report.multi_valued;
    }
  }
  return report;
}

std::vector<AttributeReport> AnalysisContext::CheckAll(
    const rdf::Graph& graph) const {
  std::vector<AttributeReport> out;
  out.reserve(candidates_.size());
  for (const std::string& p : candidates_) out.push_back(Check(graph, p));
  return out;
}

}  // namespace rdfa::hifun
