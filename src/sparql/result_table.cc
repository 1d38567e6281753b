#include "sparql/result_table.h"

#include "sparql/results_io.h"

namespace rdfa::sparql {

int ResultTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

const rdf::Term& ResultTable::UnboundTerm() {
  static const rdf::Term* const kUnbound = new rdf::Term();
  return *kUnbound;
}

ResultTable::Cell ResultTable::StoreTerm(rdf::Term term) {
  if (IsUnbound(term)) return kUnboundCell;
  overflow_.push_back(std::move(term));
  return kOverflowBit | static_cast<Cell>(overflow_.size() - 1);
}

void ResultTable::AddRow(std::vector<rdf::Term> row) {
  row.resize(columns_.size());
  for (rdf::Term& t : row) cells_.push_back(StoreTerm(std::move(t)));
  ++num_rows_;
}

void ResultTable::AddCellRow(const std::vector<Cell>& cells) {
  cells_.insert(cells_.end(), cells.begin(), cells.end());
  ++num_rows_;
}

void ResultTable::KeepRows(std::span<const uint32_t> rows) {
  const size_t width = columns_.size();
  std::vector<Cell> cells;
  cells.reserve(rows.size() * width);
  std::vector<rdf::Term> overflow;
  for (uint32_t r : rows) {
    for (size_t c = 0; c < width; ++c) {
      Cell cell = cells_[r * width + c];
      if (IsOverflow(cell)) {
        overflow.push_back(std::move(overflow_[cell & ~kOverflowBit]));
        cell = kOverflowBit | static_cast<Cell>(overflow.size() - 1);
      }
      cells.push_back(cell);
    }
  }
  cells_ = std::move(cells);
  overflow_ = std::move(overflow);
  num_rows_ = rows.size();
}

std::vector<rdf::Term> ResultTable::row(size_t r) const {
  std::vector<rdf::Term> out;
  out.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) out.push_back(at(r, c));
  return out;
}

std::string ResultTable::ToTsv() const { return WriteResultsTsv(*this); }

size_t ResultTable::ApproxBytes() const {
  size_t bytes = sizeof(ResultTable) + cells_.capacity() * sizeof(Cell) +
                 overflow_.capacity() * sizeof(rdf::Term);
  for (const std::string& c : columns_) bytes += sizeof(std::string) + c.size();
  auto strings = [](const rdf::Term& t) {
    return t.lexical().size() + t.datatype().size() + t.lang().size();
  };
  for (const rdf::Term& t : overflow_) bytes += strings(t);
  // Overflow cells are charged through overflow_ above.
  for (Cell c : cells_) {
    if (IsOverflow(c)) continue;
    bytes += sizeof(rdf::Term);
    if (c != kUnboundCell) bytes += strings(dict_->Get(c));
  }
  return bytes;
}

}  // namespace rdfa::sparql
