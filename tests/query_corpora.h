#ifndef RDFA_TESTS_QUERY_CORPORA_H_
#define RDFA_TESTS_QUERY_CORPORA_H_

// The SPARQL queries of the parser, translator, equivalence and HTTP
// suites, each corpus with the graph its queries run over. Shared by the
// grammar-variant test, the checked-in answer goldens and their generator
// (make_corpus_answers), so the three walk one set.

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "equivalence_corpus.h"
#include "hifun/hifun_parser.h"
#include "rdf/graph.h"
#include "translator/translator.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa::test {

struct QueryCorpus {
  std::string name;
  /// Fills an empty graph with the data the queries run over.
  std::function<void(rdf::Graph*)> build;
  std::vector<std::string> queries;
};

/// The running example plus 200 generated laptops.
inline void BuildCorpusProducts(rdf::Graph* g) {
  workload::BuildRunningExample(g);
  workload::ProductKgOptions opt;
  opt.laptops = 200;
  workload::GenerateProductKg(g, opt);
}

/// The invoices example plus 300 generated invoices.
inline void BuildCorpusInvoices(rdf::Graph* g) {
  workload::BuildInvoicesExample(g);
  workload::InvoicesOptions opt;
  opt.invoices = 300;
  workload::GenerateInvoices(g, opt);
}

/// The SPARQL a HIFUN query translates to; empty when it does not parse or
/// translate.
inline std::string TranslateHifun(const std::string& hifun,
                                  const std::string& ns) {
  rdf::PrefixMap prefixes;
  auto parsed = hifun::ParseHifun(hifun, prefixes, ns);
  if (!parsed.ok()) return "";
  auto sparql = translator::TranslateToSparql(parsed.value());
  return sparql.ok() ? sparql.value() : "";
}

/// The corpora in a fixed order: "parser", "translator", "http", then one
/// corpus per equivalence case, named after the case.
inline std::vector<QueryCorpus> QueryCorpora() {
  const std::string ex = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";
  std::vector<QueryCorpus> out;
  // The parser suite's accepted queries.
  out.push_back({"parser", BuildCorpusProducts, {
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
  }});
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
  QueryCorpus translated{"translator", BuildCorpusInvoices, {}};
  for (const char* h : kTranslator) {
    translated.queries.push_back(TranslateHifun(h, workload::kInvoiceNs));
  }
  out.push_back(std::move(translated));
  // The HTTP protocol suite's golden-body queries.
  out.push_back({"http", BuildCorpusProducts, {
      ex + "SELECT ?l ?p WHERE { ?l ex:price ?p . }",
      ex + "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . "
           "?m ex:origin ?c . }",
  }});
  // The equivalence corpus, each case over its own graph.
  for (const EquivalenceCase& tc : EquivalenceCorpus()) {
    out.push_back({tc.name,
                   [tc](rdf::Graph* g) { BuildEquivalenceGraph(tc, g); },
                   {TranslateHifun(tc.hifun, tc.ns)}});
  }
  return out;
}

/// The answers file (tests/data/corpus_answers.txt) is a list of records,
/// one per corpus query: a line "== <corpus>#<index> <q> <a>", then the
/// query's <q> bytes, then the <a> bytes of its TSV answer (or "!" and the
/// error), then a newline. The lengths keep the records byte-exact.
inline std::string AnswerRecord(const std::string& key,
                                const std::string& query,
                                const std::string& answer) {
  return "== " + key + " " + std::to_string(query.size()) + " " +
         std::to_string(answer.size()) + "\n" + query + answer + "\n";
}

/// Parses an answers file into key -> (query, answer); false when it is
/// malformed.
inline bool ParseAnswerRecords(
    std::string_view text,
    std::map<std::string, std::pair<std::string, std::string>>* out) {
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    if (text.substr(0, 3) != "== " || eol == std::string_view::npos) {
      return false;
    }
    const std::string header(text.substr(3, eol - 3));
    const size_t a_at = header.rfind(' ');
    const size_t q_at = header.rfind(' ', a_at - 1);
    if (a_at == std::string::npos || q_at == std::string::npos) return false;
    const size_t q = std::stoul(header.substr(q_at + 1, a_at - q_at - 1));
    const size_t a = std::stoul(header.substr(a_at + 1));
    text.remove_prefix(eol + 1);
    if (text.size() < q + a + 1 || text[q + a] != '\n') return false;
    (*out)[header.substr(0, q_at)] = {std::string(text.substr(0, q)),
                                      std::string(text.substr(q, a))};
    text.remove_prefix(q + a + 1);
  }
  return true;
}

}  // namespace rdfa::test

#endif  // RDFA_TESTS_QUERY_CORPORA_H_
