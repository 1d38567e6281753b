// SPARQL 1.1 makes the '.' before FILTER, BIND, OPTIONAL, MINUS, VALUES and
// a nested '{' optional (GroupGraphPatternSub). For every query of the
// parser, translator, equivalence and HTTP corpora, a copy with each such
// '.' removed must parse to the same plan and answer byte-identically.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "query_corpora.h"
#include "sparql/executor.h"
#include "sparql/parser.h"

namespace rdfa {
namespace {

// Removes each '.' that only whitespace separates from a following FILTER,
// BIND, OPTIONAL, MINUS, VALUES or '{'. IRIs and string literals (without
// escaped quotes) are copied untouched.
std::string DropOptionalDots(const std::string& q) {
  static const char* const kNext[] = {"FILTER", "BIND",   "OPTIONAL",
                                      "MINUS",  "VALUES", "{"};
  std::string out;
  for (size_t i = 0; i < q.size(); ++i) {
    const char c = q[i];
    // An IRI runs to its '>' with no space inside; a '<' otherwise compares.
    const size_t close = q.find(c == '<' ? '>' : '"', i + 1);
    const bool iri =
        c == '<' && close != std::string::npos &&
        q.find_first_of(" \t\n", i) > close;
    if (iri || (c == '"' && close != std::string::npos)) {
      out.append(q, i, close + 1 - i);
      i = close;
      continue;
    }
    if (c == '.') {
      size_t j = i + 1;
      while (j < q.size() && std::isspace(static_cast<unsigned char>(q[j]))) {
        ++j;
      }
      bool optional = j > i + 1 || (j < q.size() && q[j] == '{');
      bool keyword = false;
      for (const char* next : kNext) {
        keyword = keyword || q.compare(j, std::string(next).size(), next) == 0;
      }
      if (optional && keyword) continue;
    }
    out += c;
  }
  return out;
}

// The structure a query parses to: each group's element kinds, triples and
// variables, recursively.
std::string Shape(const sparql::GraphPattern& p) {
  std::string out = "{";
  for (const sparql::PatternElement& el : p.elements) {
    out += std::to_string(static_cast<int>(el.kind));
    if (el.kind == sparql::PatternElement::Kind::kTriple) {
      out += "(" + el.triple.s.var + el.triple.p.var + el.triple.o.var + ")";
    }
    if (el.kind == sparql::PatternElement::Kind::kBind) out += el.bind_var;
    if (el.child != nullptr) out += Shape(*el.child);
    if (el.child2 != nullptr) out += Shape(*el.child2);
    if (el.sub_select != nullptr) out += Shape(el.sub_select->where);
    out += ";";
  }
  return out + "}";
}

// Checks every query of `corpus` against its undotted copy; returns how
// many copies differ from their original text.
size_t CheckCorpus(const test::QueryCorpus& corpus) {
  rdf::Graph graph;
  corpus.build(&graph);
  const char* name = corpus.name.c_str();
  size_t changed = 0;
  for (const std::string& q : corpus.queries) {
    EXPECT_FALSE(q.empty()) << name << ": a HIFUN query did not translate";
    const std::string variant = DropOptionalDots(q);
    if (variant == q) continue;
    ++changed;
    auto a = sparql::ParseQuery(q);
    auto b = sparql::ParseQuery(variant);
    EXPECT_TRUE(a.ok()) << name << ": " << q;
    EXPECT_TRUE(b.ok()) << name << ": " << variant << "\n"
                        << b.status().ToString();
    if (!a.ok() || !b.ok()) continue;
    EXPECT_EQ(Shape(a.value().select.where), Shape(b.value().select.where))
        << name << ": " << variant;
    sparql::Executor ea(&graph), eb(&graph);
    EXPECT_EQ(ea.ExplainJson(a.value()), eb.ExplainJson(b.value()))
        << name << ": " << variant;
    auto ra = ea.Execute(a.value());
    auto rb = eb.Execute(b.value());
    EXPECT_EQ(ra.ok(), rb.ok()) << name << ": " << variant;
    if (ra.ok() && rb.ok()) {
      EXPECT_EQ(ra.value().ToTsv(), rb.value().ToTsv())
          << name << ": " << variant;
    }
  }
  return changed;
}

TEST(OptionalDotTest, StrippedCopiesParseAndAnswerAlike) {
  // The parser, translator and HTTP corpora come first; the rest are the
  // equivalence cases (query_corpora.h).
  const std::vector<test::QueryCorpus> corpora = test::QueryCorpora();
  ASSERT_GT(corpora.size(), 3u);
  EXPECT_GT(CheckCorpus(corpora[0]), 0u);   // parser
  EXPECT_GT(CheckCorpus(corpora[1]), 0u);   // translator
  EXPECT_EQ(CheckCorpus(corpora[2]), 0u);   // http: no optional '.' here
  size_t changed = 0;
  for (size_t i = 3; i < corpora.size(); ++i) {
    changed += CheckCorpus(corpora[i]);
  }
  EXPECT_GT(changed, 0u);
}

TEST(OptionalDotTest, StripperKeepsIrisLiteralsAndRequiredDots) {
  EXPECT_EQ(DropOptionalDots("{ ?x <urn:a.{b}> ?y . FILTER(?y < 3) . "
                             "BIND(?y > 1 AS ?z) }"),
            "{ ?x <urn:a.{b}> ?y  FILTER(?y < 3)  BIND(?y > 1 AS ?z) }");
  EXPECT_EQ(
      DropOptionalDots("{ ?x ?p \". BIND\" . ?x ?q 1.5 . BIND(1 AS ?z) }"),
      "{ ?x ?p \". BIND\" . ?x ?q 1.5  BIND(1 AS ?z) }");
  EXPECT_EQ(DropOptionalDots("{ ?x ?p ?o .{ ?a ?b ?c } }"),
            "{ ?x ?p ?o { ?a ?b ?c } }");
}

}  // namespace
}  // namespace rdfa
