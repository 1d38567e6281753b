#include "sparql/results_io.h"

#include <gtest/gtest.h>

#include "rdf/graph.h"
#include "rdf/namespaces.h"
#include "sparql/executor.h"

namespace rdfa::sparql {
namespace {

ResultTable SampleTable() {
  ResultTable t({"s", "label", "n"});
  t.AddRow({rdf::Term::Iri("http://e.org/a"),
            rdf::Term::LangLiteral("alpha", "en"), rdf::Term::Integer(1)});
  std::vector<rdf::Term> row2 = {rdf::Term::Blank("b0"),
                                 rdf::Term::Literal("say \"hi\"\n"),
                                 rdf::Term()};  // unbound third cell
  t.AddRow(row2);
  return t;
}

TEST(ResultsJsonTest, HeadAndBindings) {
  std::string json = WriteResultsJson(SampleTable());
  EXPECT_NE(json.find("\"head\":{\"vars\":[\"s\",\"label\",\"n\"]}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"type\":\"uri\",\"value\":\"http://e.org/a\""),
            std::string::npos);
  EXPECT_NE(json.find("\"xml:lang\":\"en\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"bnode\",\"value\":\"b0\""),
            std::string::npos);
  EXPECT_NE(json.find("\"datatype\":\"" + std::string(rdf::xsd::kInteger) +
                      "\""),
            std::string::npos);
}

TEST(ResultsJsonTest, UnboundCellsOmitted) {
  std::string json = WriteResultsJson(SampleTable());
  // The second binding object must not contain key "n".
  size_t second = json.find("bnode");
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(json.find("\"n\":", second), std::string::npos);
}

TEST(ResultsJsonTest, StringsEscaped) {
  std::string json = WriteResultsJson(SampleTable());
  EXPECT_NE(json.find("say \\\"hi\\\"\\n"), std::string::npos) << json;
}

TEST(ResultsCsvTest, HeaderRowsAndQuoting) {
  std::string csv = WriteResultsCsv(SampleTable());
  EXPECT_NE(csv.find("s,label,n\r\n"), std::string::npos);
  EXPECT_NE(csv.find("http://e.org/a,alpha,1\r\n"), std::string::npos);
  // Quotes doubled, newline kept inside the quoted field.
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\n\""), std::string::npos) << csv;
}

TEST(ResultsCsvTest, UnboundIsEmptyField) {
  std::string csv = WriteResultsCsv(SampleTable());
  // Second data row ends with an empty field before CRLF.
  EXPECT_NE(csv.find(",\r\n"), std::string::npos);
}

TEST(ResultsXmlTest, StructureAndEscaping) {
  std::string xml = WriteResultsXml(SampleTable());
  EXPECT_NE(xml.find("<variable name=\"label\"/>"), std::string::npos);
  EXPECT_NE(xml.find("<uri>http://e.org/a</uri>"), std::string::npos);
  EXPECT_NE(xml.find("<literal xml:lang=\"en\">alpha</literal>"),
            std::string::npos);
  EXPECT_NE(xml.find("<bnode>b0</bnode>"), std::string::npos);
  EXPECT_NE(xml.find("&quot;hi&quot;"), std::string::npos);
  // Unbound binding omitted entirely.
  EXPECT_EQ(xml.find("<binding name=\"n\"></binding>"), std::string::npos);
}

TEST(ResultsIoTest, EmptyTable) {
  ResultTable t({"x"});
  EXPECT_NE(WriteResultsJson(t).find("\"bindings\":[]"), std::string::npos);
  EXPECT_EQ(WriteResultsCsv(t), "x\r\n");
  EXPECT_NE(WriteResultsXml(t).find("<results>"), std::string::npos);
}

// Golden serializations of one table that exercises every escaping rule the
// four writers have: JSON/XML/CSV/TSV metacharacters, control bytes (named
// and numeric), multi-byte UTF-8, lang tags, datatypes, blank nodes and
// unbound cells. The strings are the writers' output as first recorded; any
// byte that moves is a wire-format change.
std::vector<std::vector<rdf::Term>> GoldenRows() {
  using rdf::Term;
  return {
      {Term::Iri("http://e.org/a"), Term::LangLiteral("alpha", "en"),
       Term::Integer(1)},
      {Term::Blank("b0"),
       Term::Literal("q\"b\\n\nr\rt\tc\x01" "d\x1f" "e\x08" "f\x0c" "g"),
       Term()},
      {Term::Iri("http://e.org/z\xc3\xbcrich"),
       Term::Literal("Z\xc3\xbcrich \xe2\x82\xac \xe6\x97\xa5\xe6\x9c\xac,x"),
       Term::Double(2.5)},
      {Term(), Term::TypedLiteral("v<&>\"'", "http://e.org/dt"),
       Term::LangLiteral("chat", "fr-CA")},
  };
}

ResultTable GoldenTable() {
  ResultTable t({"s", "o", "n"});
  for (std::vector<rdf::Term>& row : GoldenRows()) t.AddRow(std::move(row));
  return t;
}

/// The same rows, produced by the executor: every cell a dictionary id.
ResultTable GoldenTableFromExecutor(rdf::Graph* g) {
  const std::vector<std::vector<rdf::Term>> rows = GoldenRows();
  const char* const preds[] = {"urn:s", "urn:o", "urn:n"};
  for (size_t r = 0; r < rows.size(); ++r) {
    const rdf::Term subject = rdf::Term::Iri("urn:row" + std::to_string(r));
    g->Add(subject, rdf::Term::Iri("urn:k"),
           rdf::Term::Integer(static_cast<int64_t>(r)));
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (ResultTable::IsUnbound(rows[r][c])) continue;
      g->Add(subject, rdf::Term::Iri(preds[c]), rows[r][c]);
    }
  }
  Result<ResultTable> t = ExecuteQueryString(
      g,
      "SELECT ?s ?o ?n WHERE { ?r <urn:k> ?k . "
      "OPTIONAL { ?r <urn:s> ?s } . OPTIONAL { ?r <urn:o> ?o } . "
      "OPTIONAL { ?r <urn:n> ?n } } ORDER BY ?k");
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.ok() ? std::move(t).value() : ResultTable();
}

const char kGoldenJson[] =
    "{\"head\":{\"vars\":[\"s\",\"o\",\"n\"]},\"results\":{\"bindings\":["
    "{\"s\":{\"type\":\"uri\",\"value\":\"http://e.org/a\"},"
    "\"o\":{\"type\":\"literal\",\"value\":\"alpha\",\"xml:lang\":\"en\"},"
    "\"n\":{\"type\":\"literal\",\"value\":\"1\",\"datatype\":"
    "\"http://www.w3.org/2001/XMLSchema#integer\"}},"
    "{\"s\":{\"type\":\"bnode\",\"value\":\"b0\"},"
    "\"o\":{\"type\":\"literal\",\"value\":"
    "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001d\\u001fe\\u0008f\\u000cg\"}},"
    "{\"s\":{\"type\":\"uri\",\"value\":\"http://e.org/z\xc3\xbcrich\"},"
    "\"o\":{\"type\":\"literal\",\"value\":"
    "\"Z\xc3\xbcrich \xe2\x82\xac \xe6\x97\xa5\xe6\x9c\xac,x\"},"
    "\"n\":{\"type\":\"literal\",\"value\":\"2.5\",\"datatype\":"
    "\"http://www.w3.org/2001/XMLSchema#double\"}},"
    "{\"o\":{\"type\":\"literal\",\"value\":\"v<&>\\\"'\",\"datatype\":"
    "\"http://e.org/dt\"},"
    "\"n\":{\"type\":\"literal\",\"value\":\"chat\",\"xml:lang\":\"fr-CA\"}}"
    "]}}";

const char kGoldenTsv[] =
    "?s\t?o\t?n\n"
    "<http://e.org/a>\t\"alpha\"@en\t"
    "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>\n"
    "_:b0\t\"q\\\"b\\\\n\\nr\\rt\\tc\x01" "d\x1f" "e\x08" "f\x0c" "g\"\t\n"
    "<http://e.org/z\xc3\xbcrich>\t"
    "\"Z\xc3\xbcrich \xe2\x82\xac \xe6\x97\xa5\xe6\x9c\xac,x\"\t"
    "\"2.5\"^^<http://www.w3.org/2001/XMLSchema#double>\n"
    "\t\"v<&>\\\"'\"^^<http://e.org/dt>\t\"chat\"@fr-CA\n";

const char kGoldenCsv[] =
    "s,o,n\r\n"
    "http://e.org/a,alpha,1\r\n"
    "b0,\"q\"\"b\\n\nr\rt\tc\x01" "d\x1f" "e\x08" "f\x0c" "g\",\r\n"
    "http://e.org/z\xc3\xbcrich,"
    "\"Z\xc3\xbcrich \xe2\x82\xac \xe6\x97\xa5\xe6\x9c\xac,x\",2.5\r\n"
    ",\"v<&>\"\"'\",chat\r\n";

const char kGoldenXml[] =
    "<?xml version=\"1.0\"?>\n"
    "<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n"
    "  <head>\n"
    "    <variable name=\"s\"/>\n"
    "    <variable name=\"o\"/>\n"
    "    <variable name=\"n\"/>\n"
    "  </head>\n"
    "  <results>\n"
    "    <result>\n"
    "      <binding name=\"s\"><uri>http://e.org/a</uri></binding>\n"
    "      <binding name=\"o\"><literal xml:lang=\"en\">alpha</literal>"
    "</binding>\n"
    "      <binding name=\"n\"><literal datatype=\""
    "http://www.w3.org/2001/XMLSchema#integer\">1</literal></binding>\n"
    "    </result>\n"
    "    <result>\n"
    "      <binding name=\"s\"><bnode>b0</bnode></binding>\n"
    "      <binding name=\"o\"><literal>q&quot;b\\n\nr\rt\tc\x01" "d\x1f"
    "e\x08" "f\x0c" "g</literal></binding>\n"
    "    </result>\n"
    "    <result>\n"
    "      <binding name=\"s\"><uri>http://e.org/z\xc3\xbcrich</uri>"
    "</binding>\n"
    "      <binding name=\"o\"><literal>"
    "Z\xc3\xbcrich \xe2\x82\xac \xe6\x97\xa5\xe6\x9c\xac,x</literal>"
    "</binding>\n"
    "      <binding name=\"n\"><literal datatype=\""
    "http://www.w3.org/2001/XMLSchema#double\">2.5</literal></binding>\n"
    "    </result>\n"
    "    <result>\n"
    "      <binding name=\"o\"><literal datatype=\"http://e.org/dt\">"
    "v&lt;&amp;&gt;&quot;'</literal></binding>\n"
    "      <binding name=\"n\"><literal xml:lang=\"fr-CA\">chat</literal>"
    "</binding>\n"
    "    </result>\n"
    "  </results>\n"
    "</sparql>\n";

TEST(ResultsGoldenTest, AllFourFormatsByteExact) {
  const ResultTable t = GoldenTable();
  EXPECT_EQ(WriteResultsJson(t), kGoldenJson);
  EXPECT_EQ(WriteResultsTsv(t), kGoldenTsv);
  EXPECT_EQ(WriteResultsCsv(t), kGoldenCsv);
  EXPECT_EQ(WriteResultsXml(t), kGoldenXml);
}

TEST(ResultsGoldenTest, ExecutorTablesSerializeIdentically) {
  rdf::Graph g;
  const ResultTable t = GoldenTableFromExecutor(&g);
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(WriteResultsJson(t), kGoldenJson);
  EXPECT_EQ(WriteResultsTsv(t), kGoldenTsv);
  EXPECT_EQ(WriteResultsCsv(t), kGoldenCsv);
  EXPECT_EQ(WriteResultsXml(t), kGoldenXml);
}

TEST(ResultsGoldenTest, EmptyTableByteExact) {
  const ResultTable t({"x", "y"});
  EXPECT_EQ(WriteResultsJson(t),
            "{\"head\":{\"vars\":[\"x\",\"y\"]},\"results\":{\"bindings\":[]}}");
  EXPECT_EQ(WriteResultsTsv(t), "?x\t?y\n");
  EXPECT_EQ(WriteResultsCsv(t), "x,y\r\n");
  EXPECT_EQ(WriteResultsXml(t),
            "<?xml version=\"1.0\"?>\n"
            "<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n"
            "  <head>\n"
            "    <variable name=\"x\"/>\n"
            "    <variable name=\"y\"/>\n"
            "  </head>\n"
            "  <results>\n"
            "  </results>\n"
            "</sparql>\n");
}

TEST(ResultsGoldenTest, AskByteExact) {
  rdf::Graph g;
  g.Add(rdf::Term::Iri("urn:a"), rdf::Term::Iri("urn:p"),
        rdf::Term::Iri("urn:b"));
  Result<ResultTable> t = ExecuteQueryString(&g, "ASK { ?s <urn:p> ?o }");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  const char kBool[] = "http://www.w3.org/2001/XMLSchema#boolean";
  EXPECT_EQ(WriteResultsJson(t.value()),
            std::string("{\"head\":{\"vars\":[\"ask\"]},\"results\":{"
                        "\"bindings\":[{\"ask\":{\"type\":\"literal\","
                        "\"value\":\"true\",\"datatype\":\"") +
                kBool + "\"}}]}}");
  EXPECT_EQ(WriteResultsTsv(t.value()),
            std::string("?ask\n\"true\"^^<") + kBool + ">\n");
  EXPECT_EQ(WriteResultsCsv(t.value()), "ask\r\ntrue\r\n");
  EXPECT_EQ(WriteResultsXml(t.value()),
            std::string("<?xml version=\"1.0\"?>\n"
                        "<sparql xmlns=\"http://www.w3.org/2005/"
                        "sparql-results#\">\n"
                        "  <head>\n"
                        "    <variable name=\"ask\"/>\n"
                        "  </head>\n"
                        "  <results>\n"
                        "    <result>\n"
                        "      <binding name=\"ask\"><literal datatype=\"") +
                kBool +
                "\">true</literal></binding>\n"
                "    </result>\n"
                "  </results>\n"
                "</sparql>\n");
}

TEST(ResultTableTest,
     IdCellsShareTheDictionaryAndChargeTheirMaterializedSize) {
  rdf::Graph g;
  const std::string pad(200, 'x');
  for (int i = 0; i < 50; ++i) {
    g.Add(rdf::Term::Iri("urn:" + pad + std::to_string(i)),
          rdf::Term::Iri("urn:p"), rdf::Term::Literal(pad + std::to_string(i)));
  }
  Result<ResultTable> t =
      ExecuteQueryString(&g, "SELECT ?s ?o WHERE { ?s <urn:p> ?o }");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t.value().num_rows(), 50u);
  EXPECT_EQ(t.value().dict(), g.shared_terms());
  size_t term_bytes = 0;
  for (size_t r = 0; r < t.value().num_rows(); ++r) {
    for (const rdf::Term& term : t.value().row(r)) {
      term_bytes += term.lexical().size();
    }
  }
  // An id cell is charged a Term and the strings it names, as a Term cell
  // was: the cache budget admits the same answers either way.
  EXPECT_GE(t.value().ApproxBytes(), term_bytes + 100 * sizeof(rdf::Term));
  // The same rows added as terms own their strings, and render the same.
  ResultTable owned(t.value().columns());
  for (size_t r = 0; r < t.value().num_rows(); ++r) {
    owned.AddRow(t.value().row(r));
  }
  EXPECT_GE(owned.ApproxBytes(), t.value().ApproxBytes());
  EXPECT_LT(owned.ApproxBytes(), 2 * t.value().ApproxBytes());
  EXPECT_EQ(WriteResultsJson(owned), WriteResultsJson(t.value()));
}

}  // namespace
}  // namespace rdfa::sparql
