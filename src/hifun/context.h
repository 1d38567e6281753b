#ifndef RDFA_HIFUN_CONTEXT_H_
#define RDFA_HIFUN_CONTEXT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/graph.h"

namespace rdfa::hifun {

/// Applicability report for one candidate attribute of an analysis context
/// (dissertation §4.1.1): HIFUN requires attributes to be *functional*
/// (single-valued) and ideally *total* (no missing values).
struct AttributeReport {
  std::string property;          ///< property IRI
  size_t items = 0;              ///< |D| examined
  size_t with_value = 0;         ///< items with >=1 value
  size_t multi_valued = 0;       ///< items with >1 value
  size_t missing = 0;            ///< items with no value

  bool functional() const { return multi_valued == 0; }
  bool total() const { return missing == 0; }
  /// HIFUN-ready without any FCO transformation.
  bool hifun_ready() const { return functional() && total(); }
};

/// The dataset D of an analysis context: the instances of the non-empty
/// `root_classes` (IRIs), in id order without duplicates, or every subject
/// of the graph when no root is named (the artificial initial state s0 of
/// §5.3.2).
std::vector<rdf::TermId> RootItems(
    const rdf::Graph& graph, const std::vector<std::string>& root_classes);

/// An analysis context (D, A): a root class whose instances form the
/// dataset D, plus the candidate attributes applicable to D.
class AnalysisContext {
 public:
  /// Builds the context for `root_class` (IRI). An empty root selects every
  /// subject of the graph as D (the artificial initial state s0 of §5.3.2).
  AnalysisContext(const rdf::Graph& graph, std::string root_class);

  /// Multi-root context (§4.1.2): D is the union of the instances of all
  /// `root_classes` (e.g. both Company and Product as roots).
  AnalysisContext(const rdf::Graph& graph,
                  const std::vector<std::string>& root_classes);

  const std::string& root_class() const { return root_class_; }

  /// The items of D, as interned ids.
  const std::vector<rdf::TermId>& items() const { return items_; }

  /// Properties with at least one subject in D — the candidate direct
  /// attributes of the context.
  const std::vector<std::string>& candidate_attributes() const {
    return candidates_;
  }

  /// Checks the HIFUN prerequisites of `property` over D.
  AttributeReport Check(const rdf::Graph& graph,
                        const std::string& property) const;

  /// Checks every candidate attribute.
  std::vector<AttributeReport> CheckAll(const rdf::Graph& graph) const;

 private:
  std::string root_class_;
  std::vector<rdf::TermId> items_;
  std::vector<std::string> candidates_;
};

}  // namespace rdfa::hifun

#endif  // RDFA_HIFUN_CONTEXT_H_
