#include "translator/translator.h"

#include <gtest/gtest.h>

#include "hifun/hifun_parser.h"
#include "sparql/parser.h"
#include "workload/invoices.h"

namespace rdfa::translator {
namespace {

using hifun::AggOp;
using hifun::AttrExpr;
using hifun::Query;

const std::string kInv = workload::kInvoiceNs;

Query ParseQ(const std::string& text) {
  rdf::PrefixMap prefixes;
  auto q = hifun::ParseHifun(text, prefixes, kInv);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value_or(Query{});
}

std::string Translate(const std::string& hifun_text) {
  auto sparql = TranslateToSparql(ParseQ(hifun_text));
  EXPECT_TRUE(sparql.ok()) << sparql.status().ToString();
  return std::move(sparql).value_or("");
}

TEST(TranslatorTest, SimpleQueryShape) {
  // §4.2.1: (takesPlaceAt, inQuantity, SUM).
  std::string s = Translate("(takesPlaceAt, inQuantity, SUM)");
  EXPECT_NE(s.find("SELECT ?x2 (SUM(?x3) AS ?agg1)"), std::string::npos) << s;
  EXPECT_NE(s.find("?x1 <" + kInv + "takesPlaceAt> ?x2 ."), std::string::npos);
  EXPECT_NE(s.find("?x1 <" + kInv + "inQuantity> ?x3 ."), std::string::npos);
  EXPECT_NE(s.find("GROUP BY ?x2"), std::string::npos);
  EXPECT_EQ(s.find("HAVING"), std::string::npos);
}

TEST(TranslatorTest, UriRestrictionBecomesTriplePattern) {
  // §4.2.2 first case: the restriction is a triple pattern, not a FILTER.
  std::string s = Translate("(takesPlaceAt / = b1, inQuantity, SUM)");
  EXPECT_NE(s.find("?x1 <" + kInv + "takesPlaceAt> <" + kInv + "b1> ."),
            std::string::npos)
      << s;
  EXPECT_EQ(s.find("FILTER"), std::string::npos) << s;
}

TEST(TranslatorTest, LiteralRestrictionBecomesFilter) {
  // §4.2.2 second case.
  std::string s = Translate("(takesPlaceAt, inQuantity / >= 1, SUM)");
  EXPECT_NE(s.find("FILTER(?x3 >= "), std::string::npos) << s;
}

TEST(TranslatorTest, RangeRestrictionIsOneVariableAndOneFilter) {
  // Both bounds of a range test the same value: one path variable, one
  // FILTER with &&.
  Query q = ParseQ("(takesPlaceAt, ID, COUNT)");
  hifun::Restriction r;
  r.path = {kInv + "inQuantity"};
  r.op = ">=";
  r.value = rdf::Term::Integer(150);
  r.upper = rdf::Term::Integer(300);
  q.group_restrictions.push_back(r);
  auto sparql = TranslateToSparql(q);
  ASSERT_TRUE(sparql.ok()) << sparql.status().ToString();
  const std::string& s = sparql.value();
  const std::string pattern = "?x1 <" + kInv + "inQuantity> ?x3 .";
  EXPECT_NE(s.find(pattern), std::string::npos) << s;
  EXPECT_EQ(s.find("inQuantity>"), s.rfind("inQuantity>")) << s;
  EXPECT_NE(s.find("FILTER(?x3 >= " + r.value.ToNTriples() + " && ?x3 <= " +
                   r.upper->ToNTriples() + ")"),
            std::string::npos)
      << s;
  EXPECT_TRUE(sparql::ParseQuery(s).ok()) << s;
}

TEST(TranslatorTest, ResultRestrictionBecomesHaving) {
  // §4.2.3.
  std::string s = Translate("(takesPlaceAt, inQuantity, SUM / > 1000)");
  EXPECT_NE(s.find("HAVING (SUM(?x3) > 1000)"), std::string::npos) << s;
}

TEST(TranslatorTest, CompositionChainsVariables) {
  // §4.2.4: (brand ∘ delivers, inQuantity, SUM).
  std::string s = Translate("(brand o delivers, inQuantity, SUM)");
  EXPECT_NE(s.find("?x1 <" + kInv + "delivers> ?x2 ."), std::string::npos) << s;
  EXPECT_NE(s.find("?x2 <" + kInv + "brand> ?x3 ."), std::string::npos) << s;
  EXPECT_NE(s.find("GROUP BY ?x3"), std::string::npos) << s;
}

TEST(TranslatorTest, DerivedAttributeUsesBuiltin) {
  // §4.2.4 derived: (month ∘ date, inQuantity, SUM).
  std::string s = Translate("(MONTH(hasDate), inQuantity, SUM)");
  EXPECT_NE(s.find("MONTH(?x2)"), std::string::npos) << s;
  EXPECT_NE(s.find("GROUP BY MONTH(?x2)"), std::string::npos) << s;
}

TEST(TranslatorTest, PairingFansOutFromRoot) {
  // §4.2.4 pairing.
  std::string s = Translate("((takesPlaceAt x delivers), inQuantity, SUM)");
  EXPECT_NE(s.find("?x1 <" + kInv + "takesPlaceAt> ?x2 ."), std::string::npos);
  EXPECT_NE(s.find("?x1 <" + kInv + "delivers> ?x3 ."), std::string::npos);
  EXPECT_NE(s.find("GROUP BY ?x2 ?x3"), std::string::npos) << s;
}

TEST(TranslatorTest, PairingOverComposition) {
  std::string s =
      Translate("((takesPlaceAt x brand o delivers), inQuantity, SUM)");
  EXPECT_NE(s.find("GROUP BY ?x2 ?x4"), std::string::npos) << s;
}

TEST(TranslatorTest, RootClassAddsTypePattern) {
  std::string s = Translate("(takesPlaceAt, inQuantity, SUM) over Invoice");
  EXPECT_NE(s.find("rdf-syntax-ns#type> <" + kInv + "Invoice>"),
            std::string::npos)
      << s;
}

TEST(TranslatorTest, RestrictionPathGeneralCase) {
  // Alg. 4: restriction through a composition path ending at a URI.
  std::string s =
      Translate("(takesPlaceAt, inQuantity / delivers.brand = BrandA, SUM)");
  EXPECT_NE(s.find("?x1 <" + kInv + "delivers> ?x4 ."), std::string::npos) << s;
  EXPECT_NE(s.find("?x4 <" + kInv + "brand> <" + kInv + "BrandA> ."),
            std::string::npos)
      << s;
}

TEST(TranslatorTest, RestrictionPathEndingInLiteral) {
  std::string s =
      Translate("(takesPlaceAt, ID / delivers.brand != BrandA, COUNT)");
  // Non-'=' comparison with a URI goes through a FILTER on the path end.
  EXPECT_NE(s.find("FILTER("), std::string::npos) << s;
}

TEST(TranslatorTest, Paper425FullExample) {
  // §4.2.5: totals by branch and brand, January only, quantity >= 2, groups
  // with total > 1000 — the dissertation's worked translation.
  std::string s = Translate(
      "((takesPlaceAt x brand o delivers) / MONTH(hasDate) = 1, "
      "inQuantity / >= 2, SUM / > 1000)");
  EXPECT_NE(s.find("?x1 <" + kInv + "takesPlaceAt> ?x2 ."), std::string::npos)
      << s;
  EXPECT_NE(s.find("?x1 <" + kInv + "delivers> ?x3 ."), std::string::npos);
  EXPECT_NE(s.find("?x3 <" + kInv + "brand> ?x4 ."), std::string::npos);
  EXPECT_NE(s.find("?x1 <" + kInv + "inQuantity> ?x5 ."), std::string::npos);
  EXPECT_NE(s.find("?x1 <" + kInv + "hasDate> ?x6 ."), std::string::npos);
  EXPECT_NE(s.find("FILTER(MONTH(?x6) = "), std::string::npos) << s;
  EXPECT_NE(s.find("FILTER(?x5 >= "), std::string::npos);
  EXPECT_NE(s.find("GROUP BY ?x2 ?x4"), std::string::npos);
  EXPECT_NE(s.find("HAVING (SUM(?x5) > 1000)"), std::string::npos);
  // And it parses.
  EXPECT_TRUE(sparql::ParseQuery(s).ok()) << s;
}

TEST(TranslatorTest, DerivedRestrictionOnAttributeItself) {
  std::string s =
      Translate("(takesPlaceAt, inQuantity / YEAR(hasDate) = 2021, SUM)");
  EXPECT_NE(s.find("FILTER(YEAR("), std::string::npos) << s;
}

TEST(TranslatorTest, MultipleOpsProduceMultipleAggregates) {
  std::string s = Translate("(takesPlaceAt, inQuantity, SUM+AVG+MAX)");
  EXPECT_NE(s.find("(SUM(?x3) AS ?agg1)"), std::string::npos) << s;
  EXPECT_NE(s.find("(AVG(?x3) AS ?agg2)"), std::string::npos) << s;
  EXPECT_NE(s.find("(MAX(?x3) AS ?agg3)"), std::string::npos) << s;
}

TEST(TranslatorTest, NoGroupingOmitsGroupBy) {
  // Example 1 of §5.1: aggregate without GROUP BY.
  std::string s = Translate("(eps, inQuantity, AVG)");
  EXPECT_EQ(s.find("GROUP BY"), std::string::npos) << s;
  EXPECT_NE(s.find("AVG(?x2)"), std::string::npos) << s;
}

TEST(TranslatorTest, CountWithIdentityCountsRoot) {
  std::string s = Translate("(takesPlaceAt, ID, COUNT)");
  EXPECT_NE(s.find("COUNT(?x1)"), std::string::npos) << s;
}

TEST(TranslatorTest, EmptyOpsRejected) {
  Query q;
  q.measuring = AttrExpr::Identity();
  EXPECT_EQ(TranslateToSparql(q).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TranslatorTest, PairMeasureRejected) {
  Query q;
  q.measuring = AttrExpr::Pair(
      {AttrExpr::Property(kInv + "a"), AttrExpr::Property(kInv + "b")});
  q.ops = {AggOp::kSum};
  EXPECT_EQ(TranslateToSparql(q).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TranslatorTest, TranslationIsParseableSparql) {
  // Every translated query must be accepted by our SPARQL parser.
  const char* queries[] = {
      "(takesPlaceAt, inQuantity, SUM)",
      "(takesPlaceAt / = b1, inQuantity / >= 2, SUM / > 100)",
      "(brand o delivers, inQuantity, SUM+AVG)",
      "((takesPlaceAt x MONTH(hasDate)), inQuantity, MAX) over Invoice",
      "(eps, inQuantity, AVG)",
      "(takesPlaceAt, ID, COUNT)",
  };
  for (const char* q : queries) {
    std::string s = Translate(q);
    auto parsed = sparql::ParseQuery(s);
    EXPECT_TRUE(parsed.ok())
        << "hifun: " << q << "\nsparql:\n" << s << "\n" << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace rdfa::translator
