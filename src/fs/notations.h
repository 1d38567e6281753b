#ifndef RDFA_FS_NOTATIONS_H_
#define RDFA_FS_NOTATIONS_H_

#include <string>

#include "common/status.h"
#include "fs/state.h"
#include "sparql/result_table.h"

namespace rdfa::fs {

/// Table 5.1 of the dissertation: "SPARQL-expression of the model's
/// notations, assuming that the extension of the current state is stored in
/// temporary class temp". These generators emit exactly those queries; the
/// helpers below materialize/clear the temp class so the queries can be
/// evaluated, and the tests verify each against the native set operation.

/// Default temp-class IRI.
inline constexpr char kTempClass[] = "urn:rdfa:temp#Ext";

/// inst(c): SELECT ?x WHERE { ?x rdf:type <c> }.
std::string InstSparql(const std::string& class_iri);

/// Joins(E, p): SELECT DISTINCT ?v WHERE { ?e rdf:type <temp> . ?e <p> ?v }.
/// (Inverse p flips the last pattern.)
std::string JoinsSparql(const PropRef& p,
                        const std::string& temp_class = kTempClass);

/// Restrict(E, p : v): members of temp with value v for p.
std::string RestrictValueSparql(const PropRef& p, const rdf::Term& value,
                                const std::string& temp_class = kTempClass);

/// Restrict(E, c): members of temp that are instances of c.
std::string RestrictClassSparql(const std::string& class_iri,
                                const std::string& temp_class = kTempClass);

/// Count of |Restrict(E, p : v)| — the facet count the GUI shows.
std::string RestrictCountSparql(const PropRef& p, const rdf::Term& value,
                                const std::string& temp_class = kTempClass);

/// Stores `ext` into the graph as `(e, rdf:type, <temp_class>)` triples.
/// Returns how many were added.
size_t MaterializeExtension(rdf::Graph* graph, const Extension& ext,
                            const std::string& temp_class = kTempClass);

/// Removes every temp-class triple (the cleanup step Table 5.1 assumes).
size_t ClearExtension(rdf::Graph* graph,
                      const std::string& temp_class = kTempClass);

/// The first column of `table` as an extension. `table` must come from
/// evaluating a query over `graph`, so its id cells index `graph`'s
/// dictionary and are read as they are; only computed (overflow) cells are
/// looked up by value. Unbound cells and terms not in the graph are skipped.
Extension ExtensionOfColumn(const rdf::Graph& graph,
                            const sparql::ResultTable& table);

/// Evaluates one of the generated queries and returns its first column as
/// an extension (resources interned in `graph`).
Result<Extension> EvalNotation(rdf::Graph* graph, const std::string& sparql);

}  // namespace rdfa::fs

#endif  // RDFA_FS_NOTATIONS_H_
