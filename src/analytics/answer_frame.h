#ifndef RDFA_ANALYTICS_ANSWER_FRAME_H_
#define RDFA_ANALYTICS_ANSWER_FRAME_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/graph.h"
#include "sparql/result_table.h"

namespace rdfa::analytics {

/// Namespace under which answer-frame columns and rows are minted when the
/// answer is reloaded as a dataset (§5.3.3).
inline constexpr char kAfNamespace[] = "urn:rdfa:af#";

/// The Answer Frame (AF) of §5.1: holds the result table of the current
/// analytic query and supports reloading it as a new RDF dataset so that
/// further faceted restrictions express HAVING clauses and arbitrarily
/// nested analytic queries. The table is immutable and shared: copies of a
/// frame (the session keeps one, Execute returns one) share it.
class AnswerFrame {
 public:
  AnswerFrame() : table_(std::make_shared<const sparql::ResultTable>()) {}
  explicit AnswerFrame(sparql::ResultTable table)
      : table_(std::make_shared<const sparql::ResultTable>(std::move(table))) {}

  const sparql::ResultTable& table() const { return *table_; }

  /// Loads the answer as a new dataset into `*out` (paper §5.3.3): each
  /// tuple t_i gets a fresh row resource typed `urn:rdfa:af#Row`, and k
  /// triples (t_i, A_j, t_ij), where A_j is the column IRI
  /// `urn:rdfa:af#<column-name>`. Unbound cells produce no triple. Returns
  /// the number of triples added (n*k plus n type triples when total).
  Result<size_t> LoadAsDataset(rdf::Graph* out) const;

  /// §5.1 "Extra Columns": a copy of the frame keeping only `columns`, in
  /// the given order (lets the user add/remove grouping columns from the
  /// display). Unknown names are reported as NotFound.
  Result<AnswerFrame> ProjectColumns(
      const std::vector<std::string>& columns) const;

  /// IRI of the row class minted by LoadAsDataset.
  static std::string RowClassIri() { return std::string(kAfNamespace) + "Row"; }
  /// IRI of the attribute property for `column`.
  static std::string ColumnIri(const std::string& column) {
    return std::string(kAfNamespace) + column;
  }

 private:
  std::shared_ptr<const sparql::ResultTable> table_;
};

}  // namespace rdfa::analytics

#endif  // RDFA_ANALYTICS_ANSWER_FRAME_H_
