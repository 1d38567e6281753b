#ifndef RDFA_TESTS_SOLUTION_ROWS_H_
#define RDFA_TESTS_SOLUTION_ROWS_H_

// Converts between a SolutionTable and plain row vectors, so join tests can
// build inputs and compare, sort and print outputs row by row.

#include <vector>

#include "rdf/term.h"
#include "sparql/solution_table.h"

namespace rdfa::test {

using RowList = std::vector<std::vector<rdf::TermId>>;

/// The rows of `table`, each `table.width()` slots.
inline RowList Rows(const sparql::SolutionTable& table) {
  RowList out;
  out.reserve(table.size());
  for (size_t r = 0; r < table.size(); ++r) {
    out.emplace_back(table.row(r).begin(), table.row(r).end());
  }
  return out;
}

/// A table of `width` slots holding `rows`, each padded with unbound slots.
inline sparql::SolutionTable Table(size_t width, const RowList& rows) {
  sparql::SolutionTable table(width);
  for (const std::vector<rdf::TermId>& row : rows) table.AppendRow(row);
  return table;
}

}  // namespace rdfa::test

#endif  // RDFA_TESTS_SOLUTION_ROWS_H_
