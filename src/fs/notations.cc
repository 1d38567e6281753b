#include "fs/notations.h"

#include "rdf/namespaces.h"
#include "sparql/executor.h"

namespace rdfa::fs {

namespace {

std::string TypePattern(const std::string& var, const std::string& cls) {
  return var + " <" + std::string(rdf::rdfns::kType) + "> <" + cls + "> .";
}

std::string EdgePattern(const std::string& subj, const PropRef& p,
                        const std::string& obj) {
  if (p.inverse) return obj + " <" + p.iri + "> " + subj + " .";
  return subj + " <" + p.iri + "> " + obj + " .";
}

}  // namespace

std::string InstSparql(const std::string& class_iri) {
  return "SELECT DISTINCT ?x WHERE { " + TypePattern("?x", class_iri) + " }";
}

std::string JoinsSparql(const PropRef& p, const std::string& temp_class) {
  return "SELECT DISTINCT ?v WHERE { " + TypePattern("?e", temp_class) + " " +
         EdgePattern("?e", p, "?v") + " }";
}

std::string RestrictValueSparql(const PropRef& p, const rdf::Term& value,
                                const std::string& temp_class) {
  return "SELECT DISTINCT ?e WHERE { " + TypePattern("?e", temp_class) + " " +
         EdgePattern("?e", p, value.ToNTriples()) + " }";
}

std::string RestrictClassSparql(const std::string& class_iri,
                                const std::string& temp_class) {
  return "SELECT DISTINCT ?e WHERE { " + TypePattern("?e", temp_class) + " " +
         TypePattern("?e", class_iri) + " }";
}

std::string RestrictCountSparql(const PropRef& p, const rdf::Term& value,
                                const std::string& temp_class) {
  return "SELECT (COUNT(DISTINCT ?e) AS ?n) WHERE { " +
         TypePattern("?e", temp_class) + " " +
         EdgePattern("?e", p, value.ToNTriples()) + " }";
}

size_t MaterializeExtension(rdf::Graph* graph, const Extension& ext,
                            const std::string& temp_class) {
  rdf::Term type = rdf::Term::Iri(rdf::rdfns::kType);
  rdf::Term temp = rdf::Term::Iri(temp_class);
  size_t added = 0;
  for (rdf::TermId e : ext) {
    if (graph->Add(graph->terms().Get(e), type, temp)) ++added;
  }
  return added;
}

size_t ClearExtension(rdf::Graph* graph, const std::string& temp_class) {
  rdf::TermId type = graph->terms().FindIri(rdf::rdfns::kType);
  rdf::TermId temp = graph->terms().FindIri(temp_class);
  if (type == rdf::kNoTermId || temp == rdf::kNoTermId) return 0;
  return graph->RemoveMatching(rdf::kNoTermId, type, temp);
}

Extension ExtensionOfColumn(const rdf::Graph& graph,
                            const sparql::ResultTable& table) {
  Extension out;
  out.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    sparql::ResultTable::Cell cell = table.cell(r, 0);
    rdf::TermId id = sparql::ResultTable::IsOverflow(cell)
                         ? graph.terms().Find(table.term(cell))
                         : cell;
    if (id != rdf::kNoTermId) out.push_back(id);
  }
  return MakeExtension(std::move(out));
}

Result<Extension> EvalNotation(rdf::Graph* graph, const std::string& sparql) {
  RDFA_ASSIGN_OR_RETURN(sparql::ResultTable table,
                        sparql::ExecuteQueryString(graph, sparql));
  return ExtensionOfColumn(*graph, table);
}

}  // namespace rdfa::fs
