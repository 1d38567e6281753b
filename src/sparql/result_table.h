#ifndef RDFA_SPARQL_RESULT_TABLE_H_
#define RDFA_SPARQL_RESULT_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "rdf/term_table.h"

namespace rdfa::sparql {

/// A materialized SELECT result: named columns over rows of RDF terms.
///
/// Cells are stored as one flat row-major vector of 32-bit `Cell`s (late
/// materialization): a cell is either a TermId into the shared term table
/// the table holds a handle on (`dict()`, normally the queried graph's), the
/// unbound marker, or — high bit set — an index into a small table-owned
/// overflow store of computed terms (aggregates, projected expressions, ASK
/// answers, rows added through AddRow). Computed terms never enter the
/// shared dictionary, so serving queries does not grow it. A copy costs the
/// cell vector, the overflow terms and the column names; the dictionary is
/// shared, never copied.
///
/// Unbound cells read back as a default-constructed Term (an IRI with empty
/// lexical form) and are reported by `IsUnbound`.
class ResultTable {
 public:
  using Cell = uint32_t;
  static constexpr Cell kUnboundCell = rdf::kNoTermId;
  static constexpr Cell kOverflowBit = 0x80000000u;

  ResultTable() = default;
  explicit ResultTable(std::vector<std::string> columns,
                       std::shared_ptr<const rdf::TermTable> dict = nullptr)
      : columns_(std::move(columns)), dict_(std::move(dict)) {}

  const std::vector<std::string>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Index of column `name`, or -1.
  int ColumnIndex(const std::string& name) const;

  /// The term table id cells index into (null for a table of computed
  /// terms only).
  const std::shared_ptr<const rdf::TermTable>& dict() const { return dict_; }

  /// Appends a row of terms; bound cells go to the overflow store. A short
  /// row is padded with unbound cells.
  void AddRow(std::vector<rdf::Term> row);

  /// Appends one row of `num_columns()` cells: ids into dict(), kUnboundCell,
  /// or cells returned by StoreTerm.
  void AddCellRow(const std::vector<Cell>& cells);
  void Reserve(size_t rows) { cells_.reserve(rows * columns_.size()); }

  /// Keeps the rows listed in `rows`, each at most once, in that order; the
  /// overflow terms of the rows dropped are freed.
  void KeepRows(std::span<const uint32_t> rows);

  /// Moves `term` into the overflow store and returns the cell naming it
  /// (kUnboundCell for an unbound term).
  Cell StoreTerm(rdf::Term term);

  static bool IsOverflow(Cell cell) {
    return cell != kUnboundCell && (cell & kOverflowBit) != 0;
  }

  Cell cell(size_t r, size_t c) const {
    return cells_[r * columns_.size() + c];
  }
  /// The term a cell names. References stay valid for the table's lifetime.
  const rdf::Term& term(Cell cell) const {
    if (cell == kUnboundCell) return UnboundTerm();
    if ((cell & kOverflowBit) != 0) return overflow_[cell & ~kOverflowBit];
    return dict_->Get(cell);
  }
  const rdf::Term& at(size_t r, size_t c) const { return term(cell(r, c)); }
  /// Row `r` materialized as terms.
  std::vector<rdf::Term> row(size_t r) const;

  /// An unbound cell: an IRI term with empty lexical form.
  static bool IsUnbound(const rdf::Term& t) {
    return t.is_iri() && t.lexical().empty();
  }
  static const rdf::Term& UnboundTerm();

  /// Tab-separated rendering with a header line (same bytes as
  /// WriteResultsTsv).
  std::string ToTsv() const;

  /// The answer's size as materialized terms: a `Term` plus its strings per
  /// cell, whether the cell is an id or an overflow term, plus the cells
  /// and column names. This is the byte accounting the answer and roll-up
  /// caches charge an entry with. It is the figure a table of `Term` rows
  /// took, so a cache budget admits the same answers whatever the cell
  /// representation; the dictionary strings an id names are charged to
  /// every entry that names them, although the entry does not own them.
  size_t ApproxBytes() const;

 private:
  std::vector<std::string> columns_;
  std::shared_ptr<const rdf::TermTable> dict_;
  std::vector<Cell> cells_;
  std::vector<rdf::Term> overflow_;
  size_t num_rows_ = 0;
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_RESULT_TABLE_H_
