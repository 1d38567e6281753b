#include "analytics/fco.h"

#include <map>
#include <set>
#include <vector>

#include "hifun/context.h"
#include "rdf/namespaces.h"
#include "sparql/executor.h"
#include "sparql/parser.h"

namespace rdfa::analytics {

using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;

namespace {

Result<TermId> RequireProperty(const rdf::Graph& graph,
                               const std::string& p) {
  TermId id = graph.terms().FindIri(p);
  if (id == kNoTermId) {
    return Status::NotFound("property <" + p + "> does not occur");
  }
  return id;
}

}  // namespace

Result<size_t> FcoValue(rdf::Graph* graph, const std::string& root_class,
                        const std::string& p, const std::string& feature_iri) {
  RDFA_ASSIGN_OR_RETURN(TermId pid, RequireProperty(*graph, p));
  Term feature = Term::Iri(feature_iri);
  size_t added = 0;
  for (TermId e : hifun::RootItems(*graph, {root_class})) {
    std::vector<rdf::TripleId> vals = graph->Match(e, pid, kNoTermId);
    if (vals.size() != 1) continue;  // missing or multi-valued: skip
    if (graph->Add(graph->terms().Get(e), feature,
                   graph->terms().Get(vals[0].o))) {
      ++added;
    }
  }
  return added;
}

Result<size_t> FcoExists(rdf::Graph* graph, const std::string& root_class,
                         const std::string& p,
                         const std::string& feature_iri) {
  RDFA_ASSIGN_OR_RETURN(TermId pid, RequireProperty(*graph, p));
  Term feature = Term::Iri(feature_iri);
  size_t added = 0;
  for (TermId e : hifun::RootItems(*graph, {root_class})) {
    bool exists = graph->CountMatch(e, pid, kNoTermId) > 0 ||
                  graph->CountMatch(kNoTermId, pid, e) > 0;
    if (graph->Add(graph->terms().Get(e), feature,
                   Term::Integer(exists ? 1 : 0))) {
      ++added;
    }
  }
  return added;
}

Result<size_t> FcoCount(rdf::Graph* graph, const std::string& root_class,
                        const std::string& p, const std::string& feature_iri) {
  RDFA_ASSIGN_OR_RETURN(TermId pid, RequireProperty(*graph, p));
  Term feature = Term::Iri(feature_iri);
  size_t added = 0;
  for (TermId e : hifun::RootItems(*graph, {root_class})) {
    size_t n = graph->CountMatch(e, pid, kNoTermId);
    if (graph->Add(graph->terms().Get(e), feature,
                   Term::Integer(static_cast<int64_t>(n)))) {
      ++added;
    }
  }
  return added;
}

Result<size_t> FcoValuesAsFeatures(rdf::Graph* graph,
                                   const std::string& root_class,
                                   const std::string& p,
                                   const std::string& feature_prefix) {
  RDFA_ASSIGN_OR_RETURN(TermId pid, RequireProperty(*graph, p));
  // Collect all values of p first.
  std::set<TermId> values;
  graph->ForEachMatch(kNoTermId, pid, kNoTermId,
                      [&](const rdf::TripleId& t) { values.insert(t.o); });
  auto local = [](const std::string& iri) {
    size_t pos = iri.find_last_of("#/");
    return pos == std::string::npos ? iri : iri.substr(pos + 1);
  };
  size_t added = 0;
  std::vector<TermId> entities = hifun::RootItems(*graph, {root_class});
  for (TermId v : values) {
    const Term& vt = graph->terms().Get(v);
    std::string name =
        vt.is_literal() ? vt.lexical() : local(vt.lexical());
    Term feature = Term::Iri(feature_prefix + name);
    for (TermId e : entities) {
      bool has = graph->Contains(e, pid, v);
      if (graph->Add(graph->terms().Get(e), feature,
                     Term::Integer(has ? 1 : 0))) {
        ++added;
      }
    }
  }
  return added;
}

Result<size_t> FcoDegree(rdf::Graph* graph, const std::string& root_class,
                         const std::string& feature_iri) {
  Term feature = Term::Iri(feature_iri);
  size_t added = 0;
  for (TermId e : hifun::RootItems(*graph, {root_class})) {
    size_t n = graph->CountMatch(e, kNoTermId, kNoTermId) +
               graph->CountMatch(kNoTermId, kNoTermId, e);
    if (graph->Add(graph->terms().Get(e), feature,
                   Term::Integer(static_cast<int64_t>(n)))) {
      ++added;
    }
  }
  return added;
}

Result<size_t> FcoAverageDegree(rdf::Graph* graph,
                                const std::string& root_class,
                                const std::string& feature_iri) {
  Term feature = Term::Iri(feature_iri);
  size_t added = 0;
  for (TermId e : hifun::RootItems(*graph, {root_class})) {
    std::set<TermId> c;
    graph->ForEachMatch(e, kNoTermId, kNoTermId,
                        [&](const rdf::TripleId& t) { c.insert(t.o); });
    if (c.empty()) continue;
    size_t triples = 0;
    for (TermId o : c) {
      triples += graph->CountMatch(o, kNoTermId, kNoTermId) +
                 graph->CountMatch(kNoTermId, kNoTermId, o);
    }
    double avg = static_cast<double>(triples) / static_cast<double>(c.size());
    if (graph->Add(graph->terms().Get(e), feature, Term::Double(avg))) {
      ++added;
    }
  }
  return added;
}

namespace {

/// Distinct path endpoints {o2 | (e,p1,o1),(o1,p2,o2)}.
std::set<TermId> PathEnds(const rdf::Graph& graph, TermId e, TermId p1,
                          TermId p2) {
  std::set<TermId> ends;
  graph.ForEachMatch(e, p1, kNoTermId, [&](const rdf::TripleId& t1) {
    graph.ForEachMatch(t1.o, p2, kNoTermId,
                       [&](const rdf::TripleId& t2) { ends.insert(t2.o); });
  });
  return ends;
}

}  // namespace

Result<size_t> FcoPathExists(rdf::Graph* graph, const std::string& root_class,
                             const std::string& p1, const std::string& p2,
                             const std::string& feature_iri) {
  RDFA_ASSIGN_OR_RETURN(TermId p1id, RequireProperty(*graph, p1));
  RDFA_ASSIGN_OR_RETURN(TermId p2id, RequireProperty(*graph, p2));
  Term feature = Term::Iri(feature_iri);
  size_t added = 0;
  for (TermId e : hifun::RootItems(*graph, {root_class})) {
    bool exists = !PathEnds(*graph, e, p1id, p2id).empty();
    if (graph->Add(graph->terms().Get(e), feature,
                   Term::Integer(exists ? 1 : 0))) {
      ++added;
    }
  }
  return added;
}

Result<size_t> FcoPathCount(rdf::Graph* graph, const std::string& root_class,
                            const std::string& p1, const std::string& p2,
                            const std::string& feature_iri) {
  RDFA_ASSIGN_OR_RETURN(TermId p1id, RequireProperty(*graph, p1));
  RDFA_ASSIGN_OR_RETURN(TermId p2id, RequireProperty(*graph, p2));
  Term feature = Term::Iri(feature_iri);
  size_t added = 0;
  for (TermId e : hifun::RootItems(*graph, {root_class})) {
    size_t n = PathEnds(*graph, e, p1id, p2id).size();
    if (graph->Add(graph->terms().Get(e), feature,
                   Term::Integer(static_cast<int64_t>(n)))) {
      ++added;
    }
  }
  return added;
}

Result<size_t> FcoPathValueMaxFreq(rdf::Graph* graph,
                                   const std::string& root_class,
                                   const std::string& p1,
                                   const std::string& p2,
                                   const std::string& feature_iri) {
  RDFA_ASSIGN_OR_RETURN(TermId p1id, RequireProperty(*graph, p1));
  RDFA_ASSIGN_OR_RETURN(TermId p2id, RequireProperty(*graph, p2));
  Term feature = Term::Iri(feature_iri);
  size_t added = 0;
  for (TermId e : hifun::RootItems(*graph, {root_class})) {
    // Count o2 frequencies with multiplicity (not distinct).
    std::map<TermId, size_t> freq;
    graph->ForEachMatch(e, p1id, kNoTermId, [&](const rdf::TripleId& t1) {
      graph->ForEachMatch(t1.o, p2id, kNoTermId,
                          [&](const rdf::TripleId& t2) { freq[t2.o] += 1; });
    });
    if (freq.empty()) continue;
    TermId best = freq.begin()->first;
    size_t best_n = freq.begin()->second;
    for (const auto& [v, n] : freq) {
      if (n > best_n) {
        best = v;
        best_n = n;
      }
    }
    if (graph->Add(graph->terms().Get(e), feature, graph->terms().Get(best))) {
      ++added;
    }
  }
  return added;
}

namespace {

/// Parses and materializes a CONSTRUCT query back into the same graph.
Result<size_t> RunConstruct(rdf::Graph* graph, const std::string& query) {
  RDFA_ASSIGN_OR_RETURN(sparql::ParsedQuery parsed,
                        sparql::ParseQuery(query));
  if (parsed.form != sparql::ParsedQuery::Form::kConstruct) {
    return Status::Internal("expected a CONSTRUCT query");
  }
  sparql::Executor exec(graph);
  return exec.Construct(parsed.construct, graph);
}

}  // namespace

Result<size_t> FcoValueViaConstruct(rdf::Graph* graph,
                                    const std::string& root_class,
                                    const std::string& p,
                                    const std::string& feature_iri) {
  std::string type_pattern =
      root_class.empty()
          ? ""
          : "?e <" + std::string(rdf::rdfns::kType) + "> <" + root_class +
                "> . ";
  std::string query =
      "CONSTRUCT { ?e <" + feature_iri + "> ?v . }\n"
      "WHERE {\n"
      "  ?e <" + p + "> ?v .\n"
      "  { SELECT ?e WHERE { " + type_pattern + "?e <" + p + "> ?x . }\n"
      "    GROUP BY ?e HAVING (COUNT(?x) = 1) }\n"
      "}";
  return RunConstruct(graph, query);
}

Result<size_t> FcoPathCountViaConstruct(rdf::Graph* graph,
                                        const std::string& root_class,
                                        const std::string& p1,
                                        const std::string& p2,
                                        const std::string& feature_iri) {
  std::string type_pattern =
      root_class.empty()
          ? ""
          : "?e <" + std::string(rdf::rdfns::kType) + "> <" + root_class +
                "> . ";
  std::string query =
      "CONSTRUCT { ?e <" + feature_iri + "> ?n . }\n"
      "WHERE {\n"
      "  { SELECT ?e (COUNT(DISTINCT ?o2) AS ?n) WHERE { " + type_pattern +
      "?e <" + p1 + "> ?o1 . ?o1 <" + p2 + "> ?o2 . } GROUP BY ?e }\n"
      "}";
  return RunConstruct(graph, query);
}

}  // namespace rdfa::analytics
