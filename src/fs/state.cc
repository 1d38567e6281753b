#include "fs/state.h"

#include <algorithm>

#include "common/string_util.h"
#include "rdf/namespaces.h"

namespace rdfa::fs {

using rdf::kNoTermId;
using rdf::TermId;

Extension MakeExtension(std::vector<TermId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// The scans below enumerate their free position in ascending id order —
// (?, p, v) reads POS, (v, p, ?) reads SPO — so the matches arrive sorted
// and merge against the (sorted) extension. A kNoTermId value or class
// names no term of the graph and matches nothing.

Extension Restrict(const rdf::Graph& graph, const Extension& ext,
                   const PropRef& p, TermId v) {
  Extension out;
  TermId pid = graph.terms().FindIri(p.iri);
  if (pid == kNoTermId || v == kNoTermId) return out;
  ExtensionProbe probe(ext);
  if (!p.inverse) {
    graph.ForEachMatch(kNoTermId, pid, v, [&](const rdf::TripleId& t) {
      if (probe.Contains(t.s)) out.push_back(t.s);
    });
  } else {
    graph.ForEachMatch(v, pid, kNoTermId, [&](const rdf::TripleId& t) {
      if (probe.Contains(t.o)) out.push_back(t.o);
    });
  }
  return out;
}

Extension RestrictSet(const rdf::Graph& graph, const Extension& ext,
                      const PropRef& p, const Extension& vset) {
  Extension out;
  for (TermId v : vset) {
    Extension part = Restrict(graph, ext, p, v);
    out.insert(out.end(), part.begin(), part.end());
  }
  return MakeExtension(std::move(out));
}

Extension RestrictClass(const rdf::Graph& graph, const Extension& ext,
                        TermId cls) {
  Extension out;
  TermId type = graph.terms().FindIri(rdf::rdfns::kType);
  if (type == kNoTermId || cls == kNoTermId) return out;
  ExtensionProbe probe(ext);
  graph.ForEachMatch(kNoTermId, type, cls, [&](const rdf::TripleId& t) {
    if (probe.Contains(t.s)) out.push_back(t.s);
  });
  return out;
}

Extension Joins(const rdf::Graph& graph, const Extension& ext,
                const PropRef& p) {
  Extension out;
  TermId pid = graph.terms().FindIri(p.iri);
  if (pid == kNoTermId) return out;
  rdf::Graph::ProbeCursor cursor(graph);  // ext is ascending
  for (TermId e : ext) {
    if (!p.inverse) {
      cursor.ForEachMatch(e, pid, kNoTermId,
                          [&](const rdf::TripleId& t) { out.push_back(t.o); });
    } else {
      cursor.ForEachMatch(kNoTermId, pid, e,
                          [&](const rdf::TripleId& t) { out.push_back(t.s); });
    }
  }
  return MakeExtension(std::move(out));
}

namespace {
std::string LocalName(const std::string& iri) {
  size_t pos = iri.find_last_of("#/");
  return pos == std::string::npos ? iri : iri.substr(pos + 1);
}
}  // namespace

std::string Condition::ToString() const {
  std::string out;
  for (const PropRef& p : path) {
    if (!out.empty()) out += ".";
    if (p.inverse) out += "^";
    out += LocalName(p.iri);
  }
  if (kind == Kind::kValue) {
    out += " = " + (value.is_iri() ? LocalName(value.lexical())
                                   : value.lexical());
  } else {
    out += " in [";
    out += min.has_value() ? FormatNumber(*min) : "-inf";
    out += ", ";
    out += max.has_value() ? FormatNumber(*max) : "+inf";
    out += "]";
  }
  return out;
}

std::string Intention::ToSparql() const {
  std::string body;
  int var = 1;
  auto fresh = [&]() { return "?v" + std::to_string(++var); };
  if (!root_class.empty()) {
    body += "  ?x1 <" + std::string(rdf::rdfns::kType) + "> <" + root_class +
            "> .\n";
  }
  std::vector<std::string> filters;
  for (const Condition& c : conditions) {
    std::string cur = "?x1";
    for (size_t i = 0; i < c.path.size(); ++i) {
      bool last = i + 1 == c.path.size();
      std::string next;
      if (last && c.kind == Condition::Kind::kValue) {
        next = c.value.ToNTriples();
      } else {
        next = fresh();
      }
      const PropRef& p = c.path[i];
      if (p.inverse) {
        body += "  " + next + " <" + p.iri + "> " + cur + " .\n";
      } else {
        body += "  " + cur + " <" + p.iri + "> " + next + " .\n";
      }
      cur = next;
    }
    if (c.kind == Condition::Kind::kRange) {
      if (c.min.has_value()) {
        filters.push_back(cur + " >= " + FormatNumber(*c.min));
      }
      if (c.max.has_value()) {
        filters.push_back(cur + " <= " + FormatNumber(*c.max));
      }
    }
  }
  if (body.empty()) {
    // The initial state: every subject.
    body = "  ?x1 ?p0 ?o0 .\n";
  }
  std::string sparql = "SELECT DISTINCT ?x1\nWHERE {\n" + body;
  for (const std::string& f : filters) sparql += "  FILTER(" + f + ") .\n";
  sparql += "}";
  return sparql;
}

std::string Intention::ToString() const {
  std::string out =
      root_class.empty() ? "all resources" : LocalName(root_class);
  for (const Condition& c : conditions) {
    out += " & " + c.ToString();
  }
  return out;
}

}  // namespace rdfa::fs
