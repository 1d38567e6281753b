#ifndef RDFA_SPARQL_SOLUTION_TABLE_H_
#define RDFA_SPARQL_SOLUTION_TABLE_H_

#include <algorithm>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

#include "rdf/term.h"

namespace rdfa::sparql {

/// Solution rows from the first join step to the projection: `width()` id
/// slots per row (kNoTermId when unbound), all rows in one row-major
/// buffer, read and written in place as spans. A span stays valid until
/// the table grows or widens.
class SolutionTable {
 public:
  explicit SolutionTable(size_t width = 0) : width_(width) {}

  /// A table holding a copy of `row` alone.
  static SolutionTable OneRow(std::span<const rdf::TermId> row) {
    SolutionTable t(row.size());
    t.AppendRow(row);
    return t;
  }

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  std::span<const rdf::TermId> row(size_t r) const {
    return {ids_.data() + r * width_, width_};
  }
  std::span<rdf::TermId> row(size_t r) {
    return {ids_.data() + r * width_, width_};
  }

  /// Appends `row` (at most width() slots, not a row of this table) padded
  /// with unbound slots, and returns the new row.
  std::span<rdf::TermId> AppendRow(std::span<const rdf::TermId> row) {
    assert(row.size() <= width_);
    ids_.resize(ids_.size() + width_, rdf::kNoTermId);
    std::ranges::copy(row, ids_.end() - width_);
    return this->row(rows_++);
  }
  /// Appends every row of `other`, a table of the same width.
  void Append(const SolutionTable& other) {
    assert(other.width_ == width_);
    ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
    rows_ += other.rows_;
  }
  /// Drops the last row.
  void PopRow() {
    ids_.resize(ids_.size() - width_);
    --rows_;
  }
  /// Keeps the rows `keep(row)` accepts, in order.
  template <typename Keep>
  void KeepIf(const Keep& keep) {
    size_t kept = 0;
    for (size_t r = 0; r < rows_; ++r) {
      if (!keep(std::as_const(*this).row(r))) continue;
      if (kept != r) std::ranges::copy(row(r), row(kept).begin());
      ++kept;
    }
    ids_.resize(kept * width_);
    rows_ = kept;
  }

  /// Widens every row to `width` slots, the new ones unbound; the one place
  /// rows change width. A table at least that wide stays as it is.
  void Widen(size_t width) {
    if (width <= width_) return;
    std::vector<rdf::TermId> wide(rows_ * width, rdf::kNoTermId);
    for (size_t r = 0; r < rows_; ++r) {
      std::ranges::copy(row(r), wide.begin() + r * width);
    }
    ids_ = std::move(wide);
    width_ = width;
  }
  void Reserve(size_t rows) { ids_.reserve(rows * width_); }

 private:
  size_t width_;
  size_t rows_ = 0;
  std::vector<rdf::TermId> ids_;
};

}  // namespace rdfa::sparql

#endif  // RDFA_SPARQL_SOLUTION_TABLE_H_
