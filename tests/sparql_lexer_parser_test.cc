#include <gtest/gtest.h>

#include "sparql/lexer.h"
#include "sparql/parser.h"

namespace rdfa::sparql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto toks = Tokenize("SELECT ?x WHERE { ?x <urn:p> \"v\" . }");
  ASSERT_TRUE(toks.ok());
  const auto& t = toks.value();
  EXPECT_EQ(t[0].kind, TokenKind::kPName);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[1].kind, TokenKind::kVar);
  EXPECT_EQ(t[1].text, "x");
  EXPECT_EQ(t[5].kind, TokenKind::kIriRef);
  EXPECT_EQ(t[5].text, "urn:p");
}

TEST(LexerTest, ComparisonDigraphs) {
  auto toks = Tokenize("?a <= ?b >= ?c != ?d && ?e || ?f");
  ASSERT_TRUE(toks.ok());
  std::vector<std::string> puncts;
  for (const Token& t : toks.value()) {
    if (t.kind == TokenKind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_EQ(puncts, (std::vector<std::string>{"<=", ">=", "!=", "&&", "||"}));
}

TEST(LexerTest, IriVsLessThan) {
  auto toks = Tokenize("FILTER(?x < 5) ?s <urn:p> ?o");
  ASSERT_TRUE(toks.ok());
  bool saw_lt = false, saw_iri = false;
  for (const Token& t : toks.value()) {
    if (t.kind == TokenKind::kPunct && t.text == "<") saw_lt = true;
    if (t.kind == TokenKind::kIriRef && t.text == "urn:p") saw_iri = true;
  }
  EXPECT_TRUE(saw_lt);
  EXPECT_TRUE(saw_iri);
}

TEST(LexerTest, StringsWithEscapes) {
  auto toks = Tokenize("\"a\\\"b\"");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].kind, TokenKind::kString);
  EXPECT_EQ(toks.value()[0].text, "a\"b");
}

TEST(LexerTest, NumbersAndDecimals) {
  auto toks = Tokenize("42 3.25");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].kind, TokenKind::kInteger);
  EXPECT_EQ(toks.value()[1].kind, TokenKind::kDecimal);
}

TEST(ParserTest, SimpleSelect) {
  auto q = ParseQuery("SELECT ?x WHERE { ?x <urn:p> ?y . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SelectQuery& s = q.value().select;
  ASSERT_EQ(s.projections.size(), 1u);
  EXPECT_EQ(s.projections[0].var, "x");
  ASSERT_EQ(s.where.elements.size(), 1u);
  EXPECT_EQ(s.where.elements[0].kind, PatternElement::Kind::kTriple);
}

TEST(ParserTest, PrefixResolution) {
  auto q = ParseQuery(
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?x WHERE { ?x a ex:Laptop . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const TriplePattern& tp = q.value().select.where.elements[0].triple;
  EXPECT_EQ(tp.p.term.lexical(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  EXPECT_EQ(tp.o.term.lexical(), "http://e.org/Laptop");
}

TEST(ParserTest, SemicolonAndCommaLists) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <urn:p> ?a , ?b ; <urn:q> ?c . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().select.where.elements.size(), 3u);
  EXPECT_TRUE(q.value().select.select_all);
}

TEST(ParserTest, FilterExpression) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { ?x <urn:p> ?v . FILTER(?v >= 2 && ?v < 10) . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& els = q.value().select.where.elements;
  ASSERT_EQ(els.size(), 2u);
  EXPECT_EQ(els[1].kind, PatternElement::Kind::kFilter);
  EXPECT_EQ(els[1].filter->op, "&&");
}

TEST(ParserTest, GroupByAggregatesHaving) {
  auto q = ParseQuery(
      "SELECT ?m (AVG(?p) AS ?avgp) WHERE { ?x <urn:man> ?m . ?x <urn:price> "
      "?p . } GROUP BY ?m HAVING (AVG(?p) > 500) ORDER BY DESC(?avgp) LIMIT 3 "
      "OFFSET 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SelectQuery& s = q.value().select;
  ASSERT_EQ(s.projections.size(), 2u);
  EXPECT_EQ(s.projections[1].var, "avgp");
  ASSERT_NE(s.projections[1].expr, nullptr);
  EXPECT_TRUE(s.projections[1].expr->ContainsAggregate());
  ASSERT_EQ(s.group_by.size(), 1u);
  ASSERT_EQ(s.having.size(), 1u);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_EQ(s.limit, 3);
  EXPECT_EQ(s.offset, 1);
}

TEST(ParserTest, LimitOverflowIsTypedParseError) {
  // strtoll would saturate at LLONG_MAX on this literal; the parser must
  // surface a typed ParseError instead of silently clamping (the saturated
  // value would otherwise flow into a size_t cast in the executor).
  for (const char* clause :
       {"LIMIT 99999999999999999999999", "OFFSET 99999999999999999999999"}) {
    auto q = ParseQuery(std::string("SELECT ?x WHERE { ?x ?p ?o . } ") +
                        clause);
    ASSERT_FALSE(q.ok()) << clause;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << clause;
    EXPECT_NE(q.status().ToString().find("out of range"), std::string::npos)
        << q.status().ToString();
  }
}

TEST(ParserTest, LimitAtInt64MaxStillParses) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { ?x ?p ?o . } LIMIT 9223372036854775807 OFFSET 0");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().select.limit, 9223372036854775807LL);
  EXPECT_EQ(q.value().select.offset, 0);
}

TEST(ParserTest, LimitAndOffsetParseInEitherOrderOnce) {
  // SPARQL 1.1 LimitOffsetClauses: LIMIT and OFFSET in either order.
  for (const char* clauses : {"LIMIT 2 OFFSET 1", "OFFSET 1 LIMIT 2"}) {
    auto q = ParseQuery(std::string("SELECT ?x WHERE { ?x ?p ?o . } ") +
                        clauses);
    ASSERT_TRUE(q.ok()) << clauses << ": " << q.status().ToString();
    EXPECT_EQ(q.value().select.limit, 2) << clauses;
    EXPECT_EQ(q.value().select.offset, 1) << clauses;
  }
  for (const char* clauses : {"LIMIT 2 LIMIT 3", "OFFSET 1 OFFSET 2",
                              "LIMIT 2 OFFSET 1 LIMIT 3",
                              "OFFSET 1 LIMIT 2 OFFSET 3"}) {
    auto q = ParseQuery(std::string("SELECT ?x WHERE { ?x ?p ?o . } ") +
                        clauses);
    ASSERT_FALSE(q.ok()) << clauses;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << clauses;
  }
}

TEST(ParserTest, BareAggregateInSelect) {
  // The paper writes "SELECT ?x2 SUM(?x3)" without AS.
  auto q = ParseQuery(
      "SELECT ?x2 SUM(?x3) WHERE { ?x1 <urn:b> ?x2 . ?x1 <urn:q> ?x3 . } "
      "GROUP BY ?x2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().select.projections.size(), 2u);
}

TEST(ParserTest, OptionalAndUnion) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <urn:p> ?y . OPTIONAL { ?y <urn:q> ?z . } "
      "{ ?x a <urn:A> . } UNION { ?x a <urn:B> . } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& els = q.value().select.where.elements;
  ASSERT_EQ(els.size(), 3u);
  EXPECT_EQ(els[1].kind, PatternElement::Kind::kOptional);
  EXPECT_EQ(els[2].kind, PatternElement::Kind::kUnion);
}

TEST(ParserTest, BindAndValues) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <urn:p> ?v . BIND(?v * 2 AS ?w) VALUES ?x { "
      "<urn:a> <urn:b> } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& els = q.value().select.where.elements;
  ASSERT_EQ(els.size(), 3u);
  EXPECT_EQ(els[1].kind, PatternElement::Kind::kBind);
  EXPECT_EQ(els[2].kind, PatternElement::Kind::kValues);
  EXPECT_EQ(els[2].values_terms.size(), 2u);
}

TEST(ParserTest, SubSelect) {
  auto q = ParseQuery(
      "SELECT ?m ?avg WHERE { ?m a <urn:C> . { SELECT ?m (AVG(?p) AS ?avg) "
      "WHERE { ?x <urn:man> ?m . ?x <urn:price> ?p . } GROUP BY ?m } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  bool found = false;
  for (const auto& el : q.value().select.where.elements) {
    if (el.kind == PatternElement::Kind::kSubSelect) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ParserTest, PropertyPathSequenceDesugars) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { ?x <urn:manufacturer>/<urn:origin> <urn:USA> . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Two chained patterns with a fresh intermediate variable.
  ASSERT_EQ(q.value().select.where.elements.size(), 2u);
  const auto& t0 = q.value().select.where.elements[0].triple;
  const auto& t1 = q.value().select.where.elements[1].triple;
  EXPECT_TRUE(t0.o.is_var);
  EXPECT_EQ(t0.o.var, t1.s.var);
  EXPECT_FALSE(t1.o.is_var);
}

TEST(ParserTest, InversePathDesugars) {
  auto q = ParseQuery("SELECT ?c WHERE { ?c ^<urn:manufacturer> ?prod . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& tp = q.value().select.where.elements[0].triple;
  // Inverse: the pattern is flipped.
  EXPECT_EQ(tp.s.var, "prod");
  EXPECT_EQ(tp.o.var, "c");
}

TEST(ParserTest, DatatypeLiterals) {
  auto q = ParseQuery(
      "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
      "SELECT ?x WHERE { ?x <urn:d> \"2021-01-01T00:00:00\"^^xsd:dateTime . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& tp = q.value().select.where.elements[0].triple;
  EXPECT_EQ(tp.o.term.datatype(), "http://www.w3.org/2001/XMLSchema#dateTime");
}

TEST(ParserTest, ConstructQuery) {
  auto q = ParseQuery(
      "CONSTRUCT { ?x <urn:feature> ?v . } WHERE { ?x <urn:p> ?v . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().form, ParsedQuery::Form::kConstruct);
  EXPECT_EQ(q.value().construct.construct_template.size(), 1u);
}

TEST(ParserTest, AskQuery) {
  // SPARQL 1.1 allows an optional WHERE, as in SELECT.
  for (const char* text : {"ASK { <urn:a> <urn:p> <urn:b> . }",
                           "ASK WHERE { <urn:a> <urn:p> <urn:b> . }"}) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    EXPECT_EQ(q.value().form, ParsedQuery::Form::kAsk);
    EXPECT_EQ(q.value().ask.where.elements.size(), 1u);
  }
}

TEST(ParserTest, ErrorsAreParseErrors) {
  EXPECT_EQ(ParseQuery("SELECT WHERE { }").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("SELECT ?x { ?x <urn:p> ?y .").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("FROB ?x").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("SELECT ?x WHERE { ?x zz:p ?y . }").status().code(),
            StatusCode::kParseError);
}

TEST(ParserTest, GroupByFunctionExpression) {
  auto q = ParseQuery(
      "SELECT MONTH(?d) SUM(?q) WHERE { ?x <urn:date> ?d . ?x <urn:qty> ?q . "
      "} GROUP BY MONTH(?d)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().select.group_by.size(), 1u);
  EXPECT_EQ(q.value().select.group_by[0]->kind, Expr::Kind::kCall);
  EXPECT_EQ(q.value().select.group_by[0]->call_name, "MONTH");
}

TEST(ParserTest, DotBeforeNonTriplePatternIsOptional) {
  for (const char* q :
       {"SELECT ?x WHERE { ?x <urn:p> ?v FILTER(?v < 3) }",
        "SELECT ?x ?b WHERE { ?x <urn:p> ?v BIND(?v + 1 AS ?b) }",
        "SELECT ?x ?w WHERE { ?x <urn:p> ?v OPTIONAL { ?x <urn:q> ?w } }",
        "SELECT ?x WHERE { ?x <urn:p> ?v MINUS { ?x <urn:q> ?w } }",
        "SELECT ?x WHERE { ?x <urn:p> ?v VALUES ?v { 1 2 } }",
        "SELECT ?x WHERE { ?x <urn:p> ?v { ?x <urn:q> ?w } }"}) {
    auto parsed = ParseQuery(q);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << q;
    EXPECT_EQ(parsed.value().select.where.elements.size(), 2u) << q;
  }
  // Two triples still need the '.' between them.
  EXPECT_EQ(ParseQuery("SELECT ?x WHERE { ?x <urn:p> ?v ?x <urn:q> ?w }")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(ParserTest, GroupByExpressionAsVariable) {
  // (expr AS ?v) binds ?v at the end of WHERE and groups by ?v.
  auto q = ParseQuery(
      "SELECT ?cheap (COUNT(?x) AS ?n) WHERE { ?x <urn:p> ?v . } "
      "GROUP BY (?v < 3 AS ?cheap)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const SelectQuery& s = q.value().select;
  ASSERT_EQ(s.group_by.size(), 1u);
  EXPECT_EQ(s.group_by[0]->kind, Expr::Kind::kVar);
  EXPECT_EQ(s.group_by[0]->var, "cheap");
  ASSERT_EQ(s.where.elements.size(), 2u);
  const PatternElement& bind = s.where.elements.back();
  EXPECT_EQ(bind.kind, PatternElement::Kind::kBind);
  EXPECT_EQ(bind.bind_var, "cheap");
  ASSERT_NE(bind.bind_expr, nullptr);
  EXPECT_EQ(bind.bind_expr->op, "<");
  EXPECT_EQ(ParseQuery("SELECT (COUNT(?x) AS ?n) WHERE { ?x <urn:p> ?v } "
                       "GROUP BY (?v AS 3)")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(ParserTest, GroupConcatSeparator) {
  auto q = ParseQuery(
      "SELECT (GROUP_CONCAT(?n ; SEPARATOR=\"|\") AS ?all) WHERE { ?x "
      "<urn:name> ?n . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const ExprPtr& e = q.value().select.projections[0].expr;
  ASSERT_EQ(e->kind, Expr::Kind::kAggregate);
  EXPECT_EQ(e->agg, AggFunc::kGroupConcat);
  EXPECT_EQ(e->agg_separator, "|");
}

}  // namespace
}  // namespace rdfa::sparql
