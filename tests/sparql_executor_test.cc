#include "sparql/executor.h"

#include <gtest/gtest.h>

#include <set>

#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "viz/table_render.h"

namespace rdfa::sparql {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Status st = rdf::ParseTurtle(R"(
      @prefix ex: <http://e.org/> .
      ex:l1 a ex:Laptop ; ex:man ex:DELL ; ex:price 900 ; ex:usb 2 .
      ex:l2 a ex:Laptop ; ex:man ex:DELL ; ex:price 1000 ; ex:usb 2 .
      ex:l3 a ex:Laptop ; ex:man ex:Lenovo ; ex:price 820 ; ex:usb 4 .
      ex:DELL ex:origin ex:USA .
      ex:Lenovo ex:origin ex:China .
      ex:p1 a ex:Phone ; ex:man ex:Lenovo ; ex:price 300 .
    )",
                                 &g_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  ResultTable Run(const std::string& q) {
    auto res = ExecuteQueryString(&g_, q);
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
    return res.ok() ? res.value() : ResultTable();
  }

  rdf::Graph g_;
};

TEST_F(ExecutorTest, SingleTriplePattern) {
  ResultTable t = Run("SELECT ?x WHERE { ?x a <http://e.org/Laptop> . }");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(ExecutorTest, JoinTwoPatterns) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:man ex:DELL . ?x ex:usb ?u . }");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, PathJoinAcrossEntities) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:man ?m . ?m ex:origin ex:USA . }");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, FilterNumeric) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:price ?p . FILTER(?p >= 900) . }");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, FilterConjunction) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:price ?p . ?x ex:usb ?u . FILTER(?p > 800 && "
      "?u = 2) . }");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, UnboundVariableProjectsEmpty) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x ?nope WHERE { ?x a ex:Phone . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(ResultTable::IsUnbound(t.at(0, 1)));
}

TEST_F(ExecutorTest, OptionalKeepsUnmatchedRows) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x ?u WHERE { ?x ex:price ?p . OPTIONAL { ?x ex:usb ?u . } }");
  EXPECT_EQ(t.num_rows(), 4u);  // 3 laptops + phone (usb unbound)
  size_t unbound = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (ResultTable::IsUnbound(t.at(r, 1))) ++unbound;
  }
  EXPECT_EQ(unbound, 1u);
}

TEST_F(ExecutorTest, UnionCombines) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { { ?x a ex:Laptop . } UNION { ?x a ex:Phone . } }");
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST_F(ExecutorTest, UnionAfterAnEmptyStepIsEmpty) {
  // No laptop costs 123456, so the UNION extends no rows: its branches must
  // not evaluate from scratch.
  const std::string where =
      "WHERE { ?x ex:price 123456 . { ?a ex:origin ?c } UNION "
      "{ ?a ex:man ?c } }";
  ResultTable t = Run("PREFIX ex: <http://e.org/>\nSELECT * " + where);
  EXPECT_EQ(t.num_rows(), 0u);
  auto ask = ParseQuery("PREFIX ex: <http://e.org/>\nASK " + where);
  ASSERT_TRUE(ask.ok()) << ask.status().ToString();
  Executor exec(&g_);
  auto res = exec.Ask(ask.value().ask);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_FALSE(res.value());
}

TEST_F(ExecutorTest, BindComputesValue) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x ?double WHERE { ?x ex:price ?p . BIND(?p * 2 AS ?double) } "
      "ORDER BY ?double");
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.at(0, 1).lexical(), "600");
}

TEST_F(ExecutorTest, ValuesRestricts) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:price ?p . VALUES ?x { ex:l1 ex:l3 } }");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, DistinctDeduplicates) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT DISTINCT ?m WHERE { ?x ex:man ?m . }");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, OrderByAscendingAndDescending) {
  ResultTable asc = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?p WHERE { ?x ex:price ?p . } ORDER BY ?p");
  ASSERT_EQ(asc.num_rows(), 4u);
  EXPECT_EQ(asc.at(0, 0).lexical(), "300");
  EXPECT_EQ(asc.at(3, 0).lexical(), "1000");
  ResultTable desc = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?p WHERE { ?x ex:price ?p . } ORDER BY DESC(?p)");
  EXPECT_EQ(desc.at(0, 0).lexical(), "1000");
}

TEST_F(ExecutorTest, LimitOffset) {
  // Either clause order answers the same.
  for (const char* clauses : {"LIMIT 2 OFFSET 1", "OFFSET 1 LIMIT 2"}) {
    ResultTable t = Run(
        std::string("PREFIX ex: <http://e.org/>\n"
                    "SELECT ?p WHERE { ?x ex:price ?p . } ORDER BY ?p ") +
        clauses);
    ASSERT_EQ(t.num_rows(), 2u) << clauses;
    EXPECT_EQ(t.at(0, 0).lexical(), "820") << clauses;
    EXPECT_EQ(t.at(1, 0).lexical(), "900") << clauses;
  }
}

TEST_F(ExecutorTest, LimitOffsetClampToResultSize) {
  // Large-but-valid values clamp to the result window instead of wrapping.
  ResultTable all = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?p WHERE { ?x ex:price ?p . } ORDER BY ?p "
      "LIMIT 9223372036854775807");
  EXPECT_EQ(all.num_rows(), 4u);
  ResultTable none = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?p WHERE { ?x ex:price ?p . } ORDER BY ?p "
      "OFFSET 9223372036854775807");
  EXPECT_EQ(none.num_rows(), 0u);
  ResultTable both = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?p WHERE { ?x ex:price ?p . } ORDER BY ?p "
      "LIMIT 9223372036854775807 OFFSET 3");
  ASSERT_EQ(both.num_rows(), 1u);
  EXPECT_EQ(both.at(0, 0).lexical(), "1000");
}

TEST_F(ExecutorTest, NegativeOffsetInAstClampsToZero) {
  // Unreachable through the parser (it rejects negatives), but a
  // hand-built AST must not wrap through the size_t cast.
  auto parsed = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?p WHERE { ?x ex:price ?p . } ORDER BY ?p");
  ASSERT_TRUE(parsed.ok());
  ParsedQuery q = parsed.value();
  q.select.offset = -5;
  Executor exec(&g_);
  auto res = exec.Execute(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().num_rows(), 4u);
}

TEST_F(ExecutorTest, SelectStarSkipsInternalVars) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT * WHERE { ?x ex:man/ex:origin ex:USA . }");
  ASSERT_EQ(t.num_columns(), 1u);
  EXPECT_EQ(t.columns()[0], "x");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(ExecutorTest, AskTrueAndFalse) {
  rdf::Graph& g = g_;
  Executor exec(&g);
  auto yes = ParseQuery("ASK { <http://e.org/l1> <http://e.org/usb> 2 . }");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(exec.Ask(yes.value().ask).value());
  auto no = ParseQuery("ASK { <http://e.org/l1> <http://e.org/usb> 9 . }");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(exec.Ask(no.value().ask).value());
}

TEST_F(ExecutorTest, ConstructMaterializesTriples) {
  Executor exec(&g_);
  auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "CONSTRUCT { ?x ex:cheap true . } WHERE { ?x ex:price ?p . FILTER(?p < "
      "850) . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  rdf::Graph out;
  auto added = exec.Construct(q.value().construct, &out);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value(), 2u);  // l3 and p1
}

TEST_F(ExecutorTest, SubSelectJoinsOnSharedVars) {
  ResultTable t = Run(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x ?mx WHERE { ?x ex:price ?p . "
      "{ SELECT (MAX(?q) AS ?mx) WHERE { ?y ex:price ?q . } } "
      "FILTER(?p = ?mx) . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(viz::LocalName(t.at(0, 0).lexical()), "l2");
}

TEST_F(ExecutorTest, SameVariableTwiceInPattern) {
  g_.Add(rdf::Term::Iri("http://e.org/self"), rdf::Term::Iri("http://e.org/p"),
         rdf::Term::Iri("http://e.org/self"));
  ResultTable t = Run("SELECT ?x WHERE { ?x <http://e.org/p> ?x . }");
  ASSERT_EQ(t.num_rows(), 1u);
}

TEST_F(ExecutorTest, ImpossibleConstantMeansEmpty) {
  ResultTable t = Run("SELECT ?x WHERE { ?x <urn:nothere> <urn:nope> . }");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(ExecutorTest, FilterPushdownDoesNotChangeResults) {
  const char* queries[] = {
      // Filter ready after the first triple run.
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:price ?p . FILTER(?p > 500) ?x ex:man ?m . }",
      // Filter referencing an OPTIONAL variable: must wait for the end.
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:price ?p . OPTIONAL { ?x ex:usb ?u . } "
      "FILTER(BOUND(?u)) }",
      // Filter on a BIND result.
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:price ?p . BIND(?p * 2 AS ?d) FILTER(?d > "
      "1700) }",
  };
  for (const char* q : queries) {
    auto parsed = ParseQuery(q);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Executor pushed(&g_, /*reorder_joins=*/true, /*push_filters=*/true);
    Executor deferred(&g_, /*reorder_joins=*/true, /*push_filters=*/false);
    auto a = pushed.Select(parsed.value().select);
    auto b = deferred.Select(parsed.value().select);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    std::multiset<std::string> sa, sb;
    for (size_t r = 0; r < a.value().num_rows(); ++r) {
      sa.insert(a.value().at(r, 0).lexical());
    }
    for (size_t r = 0; r < b.value().num_rows(); ++r) {
      sb.insert(b.value().at(r, 0).lexical());
    }
    EXPECT_EQ(sa, sb) << q;
  }
}

TEST_F(ExecutorTest, ReorderingDoesNotChangeResults) {
  const char* q =
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x ex:usb 2 . ?x ex:man ?m . ?m ex:origin ex:USA . }";
  auto parsed = ParseQuery(q);
  ASSERT_TRUE(parsed.ok());
  Executor with(&g_, /*reorder_joins=*/true);
  Executor without(&g_, /*reorder_joins=*/false);
  auto a = with.Select(parsed.value().select);
  auto b = without.Select(parsed.value().select);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::multiset<std::string> sa, sb;
  for (size_t r = 0; r < a.value().num_rows(); ++r) {
    sa.insert(a.value().at(r, 0).lexical());
  }
  for (size_t r = 0; r < b.value().num_rows(); ++r) {
    sb.insert(b.value().at(r, 0).lexical());
  }
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa.size(), 2u);
}

}  // namespace
}  // namespace rdfa::sparql
