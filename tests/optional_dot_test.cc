// SPARQL 1.1 makes the '.' before FILTER, BIND, OPTIONAL, MINUS, VALUES and
// a nested '{' optional (GroupGraphPatternSub). For every query of the
// parser, translator, equivalence and HTTP corpora, a copy with each such
// '.' removed must parse to the same plan and answer byte-identically.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "equivalence_corpus.h"
#include "hifun/hifun_parser.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "translator/translator.h"
#include "workload/invoices.h"
#include "workload/products.h"

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

struct Corpus {
  const char* name;
  rdf::Graph* graph;
  std::vector<std::string> queries;
};

// Checks every query of `corpus` against its undotted copy; returns how
// many copies differ from their original text.
size_t CheckCorpus(const Corpus& corpus) {
  size_t changed = 0;
  for (const std::string& q : corpus.queries) {
    const std::string variant = DropOptionalDots(q);
    if (variant == q) continue;
    ++changed;
    auto a = sparql::ParseQuery(q);
    auto b = sparql::ParseQuery(variant);
    EXPECT_TRUE(a.ok()) << corpus.name << ": " << q;
    EXPECT_TRUE(b.ok()) << corpus.name << ": " << variant << "\n"
                        << b.status().ToString();
    if (!a.ok() || !b.ok()) continue;
    EXPECT_EQ(Shape(a.value().select.where), Shape(b.value().select.where))
        << corpus.name << ": " << variant;
    sparql::Executor ea(corpus.graph), eb(corpus.graph);
    EXPECT_EQ(ea.ExplainJson(a.value()), eb.ExplainJson(b.value()))
        << corpus.name << ": " << variant;
    auto ra = ea.Execute(a.value());
    auto rb = eb.Execute(b.value());
    EXPECT_EQ(ra.ok(), rb.ok()) << corpus.name << ": " << variant;
    if (ra.ok() && rb.ok()) {
      EXPECT_EQ(ra.value().ToTsv(), rb.value().ToTsv())
          << corpus.name << ": " << variant;
    }
  }
  return changed;
}

std::string Translate(const std::string& hifun, const std::string& ns) {
  rdf::PrefixMap prefixes;
  auto parsed = hifun::ParseHifun(hifun, prefixes, ns);
  EXPECT_TRUE(parsed.ok()) << hifun;
  if (!parsed.ok()) return "";
  auto sparql = translator::TranslateToSparql(parsed.value());
  EXPECT_TRUE(sparql.ok()) << hifun;
  return sparql.ok() ? sparql.value() : "";
}

TEST(OptionalDotTest, StrippedCopiesParseAndAnswerAlike) {
  rdf::Graph products;
  workload::BuildRunningExample(&products);
  workload::ProductKgOptions popt;
  popt.laptops = 200;
  workload::GenerateProductKg(&products, popt);
  rdf::Graph invoices;
  workload::BuildInvoicesExample(&invoices);
  workload::InvoicesOptions iopt;
  iopt.invoices = 300;
  workload::GenerateInvoices(&invoices, iopt);

  const std::string ex = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";
  // The parser suite's accepted queries.
  Corpus parser{"parser", &products, {
      "SELECT ?x WHERE { ?x <urn:p> ?y . }",
      "SELECT * WHERE { ?x <urn:p> ?a , ?b ; <urn:q> ?c . }",
      "SELECT ?x WHERE { ?x <urn:p> ?v . FILTER(?v >= 2 && ?v < 10) . }",
      "SELECT ?m (AVG(?p) AS ?avgp) WHERE { ?x <urn:man> ?m . ?x <urn:price> "
      "?p . } GROUP BY ?m HAVING (AVG(?p) > 500) ORDER BY DESC(?avgp) "
      "LIMIT 3 OFFSET 1",
      "SELECT * WHERE { ?x <urn:p> ?y . OPTIONAL { ?y <urn:q> ?z . } "
      "{ ?x a <urn:A> . } UNION { ?x a <urn:B> . } }",
      "SELECT * WHERE { ?x <urn:p> ?v . BIND(?v * 2 AS ?w) "
      "VALUES ?x { <urn:a> <urn:b> } }",
      "SELECT ?m ?avg WHERE { ?m a <urn:C> . { SELECT ?m (AVG(?p) AS ?avg) "
      "WHERE { ?x <urn:man> ?m . ?x <urn:price> ?p . } GROUP BY ?m } }",
      "SELECT ?x WHERE { ?x <urn:manufacturer>/<urn:origin> <urn:USA> . }",
      "SELECT MONTH(?d) SUM(?q) WHERE { ?x <urn:date> ?d . ?x <urn:qty> ?q . "
      "} GROUP BY MONTH(?d)",
      "SELECT (GROUP_CONCAT(?n ; SEPARATOR=\"|\") AS ?all) WHERE { "
      "?x <urn:name> ?n . }",
      ex + "SELECT ?l ?c WHERE { ?l ex:price ?p . FILTER(?p < 900) . "
           "OPTIONAL { ?l ex:manufacturer ?m . ?m ex:origin ?c . } . "
           "MINUS { ?l ex:USBPorts 1 . } . BIND(?p * 2 AS ?d) . }",
  }};
  // The translator suite's HIFUN queries, over the invoices.
  const char* const kTranslator[] = {
      "(takesPlaceAt, inQuantity, SUM)",
      "(takesPlaceAt / = b1, inQuantity, SUM)",
      "(takesPlaceAt, inQuantity / >= 1, SUM)",
      "(takesPlaceAt, inQuantity, SUM / > 1000)",
      "(brand o delivers, inQuantity, SUM)",
      "(MONTH(hasDate), inQuantity, SUM)",
      "((takesPlaceAt x delivers), inQuantity, SUM)",
      "((takesPlaceAt x brand o delivers), inQuantity, SUM)",
      "(takesPlaceAt, inQuantity, SUM) over Invoice",
      "(takesPlaceAt, inQuantity / delivers.brand = BrandA, SUM)",
      "(takesPlaceAt, ID / delivers.brand != BrandA, COUNT)",
      "(takesPlaceAt, inQuantity / YEAR(hasDate) = 2021, SUM)",
      "(takesPlaceAt, inQuantity, SUM+AVG+MAX)",
      "(eps, inQuantity, AVG)",
      "(takesPlaceAt, ID, COUNT)",
      "((takesPlaceAt x MONTH(hasDate)), inQuantity, MAX) over Invoice",
  };
  Corpus translated{"translator", &invoices, {}};
  for (const char* h : kTranslator) {
    translated.queries.push_back(Translate(h, workload::kInvoiceNs));
  }
  // The HTTP protocol suite's golden-body queries.
  Corpus http{"http", &products, {
      ex + "SELECT ?l ?p WHERE { ?l ex:price ?p . }",
      ex + "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . "
           "?m ex:origin ?c . }",
  }};
  EXPECT_GT(CheckCorpus(parser), 0u);
  EXPECT_GT(CheckCorpus(translated), 0u);
  EXPECT_EQ(CheckCorpus(http), 0u);  // no optional '.' in this corpus

  // The equivalence corpus, each over its own graph.
  size_t changed = 0;
  for (const test::EquivalenceCase& tc : test::EquivalenceCorpus()) {
    rdf::Graph g;
    test::BuildEquivalenceGraph(tc, &g);
    changed += CheckCorpus({tc.name.c_str(), &g, {Translate(tc.hifun, tc.ns)}});
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
