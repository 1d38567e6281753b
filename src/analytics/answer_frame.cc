#include "analytics/answer_frame.h"

#include "rdf/namespaces.h"

namespace rdfa::analytics {

using rdf::Term;

Result<size_t> AnswerFrame::LoadAsDataset(rdf::Graph* out) const {
  if (table_->num_columns() == 0) {
    return Status::InvalidArgument("empty answer frame");
  }
  Term row_class = Term::Iri(RowClassIri());
  Term type = Term::Iri(rdf::rdfns::kType);
  size_t added = 0;
  for (size_t r = 0; r < table_->num_rows(); ++r) {
    Term row = Term::Iri(std::string(kAfNamespace) + "t" + std::to_string(r + 1));
    if (out->Add(row, type, row_class)) ++added;
    for (size_t c = 0; c < table_->num_columns(); ++c) {
      const Term& cell = table_->at(r, c);
      if (sparql::ResultTable::IsUnbound(cell)) continue;
      Term attr = Term::Iri(ColumnIri(table_->columns()[c]));
      if (out->Add(row, attr, cell)) ++added;
    }
  }
  return added;
}

Result<AnswerFrame> AnswerFrame::ProjectColumns(
    const std::vector<std::string>& columns) const {
  std::vector<int> indexes;
  indexes.reserve(columns.size());
  for (const std::string& name : columns) {
    int idx = table_->ColumnIndex(name);
    if (idx < 0) return Status::NotFound("no column " + name);
    indexes.push_back(idx);
  }
  sparql::ResultTable projected(columns);
  for (size_t r = 0; r < table_->num_rows(); ++r) {
    std::vector<rdf::Term> row;
    row.reserve(indexes.size());
    for (int idx : indexes) row.push_back(table_->at(r, idx));
    projected.AddRow(std::move(row));
  }
  return AnswerFrame(std::move(projected));
}

}  // namespace rdfa::analytics
