#include "fs/session.h"

#include <algorithm>

#include "fs/notations.h"
#include "rdf/namespaces.h"
#include "sparql/executor.h"
#include "sparql/parser.h"

namespace rdfa::fs {

using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;

Session::Session(rdf::Graph* graph, EvalMode mode)
    : graph_(graph),
      mode_(mode),
      vocab_(graph),
      schema_(*graph, vocab_),
      facets_(*graph, schema_, vocab_) {
  Start();
}

void Session::Start() {
  history_.clear();
  State s0;
  // SPO order hands out each subject's triples together, in ascending
  // subject order, so s0 is built sorted without a set.
  graph_->ForEachInPerm(
      rdf::Graph::kPermSPO, kNoTermId, kNoTermId, kNoTermId,
      [&](const rdf::TripleId& t) {
        // Schema triples: keep their subjects out of s0 unless they also
        // carry data. (Data subjects re-enter through their data triples.)
        if (t.p == vocab_.sub_class_of || t.p == vocab_.sub_property_of ||
            t.p == vocab_.domain || t.p == vocab_.range) {
          return;
        }
        if (s0.ext.empty() || s0.ext.back() != t.s) s0.ext.push_back(t.s);
      });
  history_.push_back(std::move(s0));
  InvalidateFacetMemos();
}

void Session::StartFromResults(const Extension& results) {
  history_.clear();
  State s0;
  s0.ext = MakeExtension(results);
  history_.push_back(std::move(s0));
  InvalidateFacetMemos();
}

Status Session::Push(State next) {
  if (mode_ == EvalMode::kSparqlOnly) {
    RDFA_RETURN_NOT_OK(EvalIntentionSparql(&next));
  }
  if (next.ext.empty()) {
    return Status::InvalidArgument(
        "transition would produce an empty result set (not offered by the "
        "UI)");
  }
  history_.push_back(std::move(next));
  InvalidateFacetMemos();
  return Status::OK();
}

void Session::InvalidateFacetMemos() const {
  class_facet_memo_.reset();
  property_facet_memo_.reset();
}

Status Session::EvalIntentionSparql(State* state) {
  sparql::Executor exec(graph_);
  RDFA_ASSIGN_OR_RETURN(sparql::ParsedQuery q,
                        sparql::ParseQuery(state->intent.ToSparql()));
  RDFA_ASSIGN_OR_RETURN(sparql::ResultTable table, exec.Execute(q));
  state->ext = ExtensionOfColumn(*graph_, table);
  return Status::OK();
}

Status Session::ClickClass(const std::string& class_iri) {
  TermId cls = graph_->terms().FindIri(class_iri);
  if (cls == kNoTermId) {
    return Status::NotFound("unknown class <" + class_iri + ">");
  }
  State next;
  next.intent = current().intent;
  next.intent.root_class = class_iri;
  next.ext = RestrictClass(*graph_, current().ext, cls);
  return Push(std::move(next));
}

Status Session::ClickValue(const std::vector<PropRef>& path,
                           const Term& value) {
  if (path.empty()) return Status::InvalidArgument("empty property path");
  TermId v = graph_->terms().Find(value);
  if (v == kNoTermId) {
    return Status::NotFound("value " + value.ToNTriples() +
                            " does not occur in the graph");
  }
  State next;
  next.intent = current().intent;
  Condition cond;
  cond.kind = Condition::Kind::kValue;
  cond.path = path;
  cond.value = value;
  next.intent.conditions.push_back(std::move(cond));
  next.ext = facets_.RestrictByPath(current().ext, path, v);
  return Push(std::move(next));
}

Status Session::ClickRange(const std::vector<PropRef>& path,
                           std::optional<double> min,
                           std::optional<double> max) {
  if (path.empty()) return Status::InvalidArgument("empty property path");
  if (!min.has_value() && !max.has_value()) {
    return Status::InvalidArgument("a range filter needs a bound");
  }
  State next;
  next.intent = current().intent;
  Condition cond;
  cond.kind = Condition::Kind::kRange;
  cond.path = path;
  cond.min = min;
  cond.max = max;
  next.intent.conditions.push_back(std::move(cond));
  next.ext = facets_.RestrictByRange(current().ext, path, min, max);
  return Push(std::move(next));
}

Status Session::Back() {
  if (history_.size() <= 1) {
    return Status::InvalidArgument("already at the initial state");
  }
  history_.pop_back();
  InvalidateFacetMemos();
  return Status::OK();
}

std::vector<ClassFacet> Session::ClassFacets() const {
  if (!class_facet_memo_.has_value()) {
    class_facet_memo_ = facets_.ClassFacets(current().ext);
  }
  return *class_facet_memo_;
}

std::vector<PropertyFacet> Session::PropertyFacets(
    bool include_inverse) const {
  if (include_inverse) {
    // The inverse variant is rarer; compute it fresh.
    return facets_.PropertyFacets(current().ext, true);
  }
  if (!property_facet_memo_.has_value()) {
    property_facet_memo_ = facets_.PropertyFacets(current().ext, false);
  }
  return *property_facet_memo_;
}

PropertyFacet Session::ExpandPath(const std::vector<PropRef>& path) const {
  return facets_.PathFacet(current().ext, path);
}

namespace {
std::string LocalName(const std::string& iri) {
  size_t pos = iri.find_last_of("#/");
  return pos == std::string::npos ? iri : iri.substr(pos + 1);
}

void RenderClassFacet(const ClassFacet& f, const rdf::TermTable& terms,
                      int indent, std::string* out) {
  out->append(indent, ' ');
  *out += LocalName(terms.Get(f.cls).lexical()) + " (" +
          std::to_string(f.count) + ")\n";
  for (const ClassFacet& c : f.children) {
    RenderClassFacet(c, terms, indent + 2, out);
  }
}
}  // namespace

std::string Session::RenderText(size_t max_objects) const {
  const rdf::TermTable& terms = graph_->terms();
  std::string out = "== " + current().intent.ToString() + " (" +
                    std::to_string(current().ext.size()) + " objects) ==\n";
  out += "-- classes --\n";
  for (const ClassFacet& f : ClassFacets()) {
    RenderClassFacet(f, terms, 0, &out);
  }
  out += "-- properties --\n";
  for (const PropertyFacet& f : PropertyFacets()) {
    out += "by " + std::string(f.prop.inverse ? "^" : "") +
           LocalName(f.prop.iri) + " (" + std::to_string(f.values.size()) +
           ")\n";
    size_t shown = 0;
    for (const ValueCount& vc : f.values) {
      if (shown++ >= max_objects) {
        out += "  ...\n";
        break;
      }
      const Term& v = terms.Get(vc.value);
      out += "  " + (v.is_literal() ? v.lexical() : LocalName(v.lexical())) +
             " (" + std::to_string(vc.count) + ")\n";
    }
  }
  out += "-- objects --\n";
  size_t shown = 0;
  for (TermId e : current().ext) {
    if (shown++ >= max_objects) {
      out += "...\n";
      break;
    }
    const Term& t = terms.Get(e);
    out += (t.is_literal() ? t.lexical() : LocalName(t.lexical())) + "\n";
  }
  return out;
}

}  // namespace rdfa::fs
