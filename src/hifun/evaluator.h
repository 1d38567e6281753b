#ifndef RDFA_HIFUN_EVALUATOR_H_
#define RDFA_HIFUN_EVALUATOR_H_

#include "common/query_context.h"
#include "common/status.h"
#include "hifun/query.h"
#include "rdf/graph.h"
#include "sparql/result_table.h"

namespace rdfa::hifun {

/// Direct (SPARQL-free) evaluation of HIFUN queries following the
/// three-step semantics of §2.5 — grouping, measuring, reduction. Serves as
/// the reference implementation that the HIFUN→SPARQL translation is tested
/// for equivalence against (Proposition 2, soundness). It walks ids
/// (DESIGN.md §19) and shares no kernel with the SPARQL executor, so it
/// stays an independent oracle for it.
///
/// Restriction semantics (documented in DESIGN.md): a Restriction on the
/// grouping/measuring side is a per-item condition. With an empty path it
/// constrains the attribute's own value (e.g. inQuantity >= 2); with a
/// non-empty path it constrains the composition path walked from the item
/// (e.g. manufacturer.origin = ex:US).
class Evaluator {
 public:
  explicit Evaluator(const rdf::Graph& graph) : graph_(graph) {}

  /// Evaluates `query`. Returns Precondition when a traversed attribute is
  /// multi-valued on some item (HIFUN prerequisite §4.1.1 — apply an FCO
  /// transformation first). Items with missing values are skipped, matching
  /// the BGP join semantics of the SPARQL translation.
  Result<sparql::ResultTable> Evaluate(const Query& query) const {
    return Evaluate(query, QueryContext());
  }

  /// As above with a deadline/cancellation context, checked every 256 items
  /// in the group-measure pass and every 64 groups in the reduction; a trip
  /// unwinds to DeadlineExceeded/Cancelled.
  Result<sparql::ResultTable> Evaluate(const Query& query,
                                       const QueryContext& ctx) const;

 private:
  const rdf::Graph& graph_;
};

}  // namespace rdfa::hifun

#endif  // RDFA_HIFUN_EVALUATOR_H_
