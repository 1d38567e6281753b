#include <gtest/gtest.h>

#include "hifun/context.h"
#include "hifun/evaluator.h"
#include "hifun/hifun_parser.h"
#include "hifun/query.h"
#include "sparql/value.h"
#include "viz/table_render.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa::hifun {
namespace {

const std::string kInv = workload::kInvoiceNs;
const std::string kEx = workload::kExampleNs;

class HifunEvalTest : public ::testing::Test {
 protected:
  void SetUp() override { workload::BuildInvoicesExample(&g_); }

  std::map<std::string, double> Rows(const sparql::ResultTable& t) {
    std::map<std::string, double> out;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      out[viz::DisplayTerm(t.at(r, 0))] =
          *sparql::Value::FromTerm(t.at(r, t.num_columns() - 1)).AsNumeric();
    }
    return out;
  }

  rdf::Graph g_;
};

TEST_F(HifunEvalTest, SimpleQuerySumByBranch) {
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Property(kInv + "takesPlaceAt");
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum};
  Evaluator eval(g_);
  auto res = eval.Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto rows = Rows(res.value());
  EXPECT_EQ(rows["b1"], 300);
  EXPECT_EQ(rows["b2"], 600);
  EXPECT_EQ(rows["b3"], 600);
}

TEST_F(HifunEvalTest, RangeRestrictionTestsBothBoundsOnOneValue) {
  // inQuantity in [150, 300]: only d1 (b1, 200) and d3 (b2, 200).
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Property(kInv + "takesPlaceAt");
  Restriction r;
  r.path = {kInv + "inQuantity"};
  r.op = ">=";
  r.value = rdf::Term::Integer(150);
  r.upper = rdf::Term::Integer(300);
  q.group_restrictions.push_back(r);
  q.ops = {AggOp::kCount};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto rows = Rows(res.value());
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows["b1"], 1);
  EXPECT_EQ(rows["b2"], 1);
  EXPECT_EQ(r.ToString(), "inQuantity >= " + r.value.ToNTriples() + " <= " +
                              r.upper->ToNTriples());
}

TEST_F(HifunEvalTest, AttributeRestrictedToUri) {
  // (takesPlaceAt/=b1, inQuantity, SUM): only branch b1.
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Property(kInv + "takesPlaceAt");
  Restriction r;
  r.op = "=";
  r.value = rdf::Term::Iri(kInv + "b1");
  q.group_restrictions.push_back(r);
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().num_rows(), 1u);
  EXPECT_EQ(Rows(res.value())["b1"], 300);
}

TEST_F(HifunEvalTest, MeasureRestrictedByLiteral) {
  // quantities >= 200 only: b1=200, b2=600, b3=400.
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Property(kInv + "takesPlaceAt");
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  Restriction r;
  r.op = ">=";
  r.value = rdf::Term::Integer(200);
  q.measure_restrictions.push_back(r);
  q.ops = {AggOp::kSum};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto rows = Rows(res.value());
  EXPECT_EQ(rows["b1"], 200);
  EXPECT_EQ(rows["b2"], 600);
  EXPECT_EQ(rows["b3"], 400);
}

TEST_F(HifunEvalTest, ResultRestrictionHaving) {
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Property(kInv + "takesPlaceAt");
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum};
  ResultRestriction rr;
  rr.op = ">";
  rr.value = 500;
  q.result_restriction = rr;
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().num_rows(), 2u);  // b2, b3
}

TEST_F(HifunEvalTest, CompositionBrandOfDelivers) {
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Compose({AttrExpr::Property(kInv + "delivers"),
                                  AttrExpr::Property(kInv + "brand")});
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto rows = Rows(res.value());
  EXPECT_EQ(rows["BrandA"], 600);
  EXPECT_EQ(rows["BrandB"], 900);
}

TEST_F(HifunEvalTest, DerivedMonthGrouping) {
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping =
      AttrExpr::Derived("MONTH", AttrExpr::Property(kInv + "hasDate"));
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  auto rows = Rows(res.value());
  EXPECT_EQ(rows["1"], 500);
  EXPECT_EQ(rows["2"], 900);
  EXPECT_EQ(rows["3"], 100);
}

TEST_F(HifunEvalTest, PairingTwoGroupings) {
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Pair({AttrExpr::Property(kInv + "takesPlaceAt"),
                               AttrExpr::Property(kInv + "delivers")});
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().num_rows(), 6u);
  EXPECT_EQ(res.value().num_columns(), 3u);
}

TEST_F(HifunEvalTest, MultipleOps) {
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Property(kInv + "takesPlaceAt");
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum, AggOp::kAvg, AggOp::kMax, AggOp::kMin, AggOp::kCount};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().num_columns(), 6u);
  // b3: sum 600, avg 200, max 400, min 100, count 3.
  for (size_t r = 0; r < res.value().num_rows(); ++r) {
    if (viz::DisplayTerm(res.value().at(r, 0)) == "b3") {
      EXPECT_EQ(res.value().at(r, 1).lexical(), "600");
      EXPECT_EQ(res.value().at(r, 2).lexical(), "200");
      EXPECT_EQ(res.value().at(r, 3).lexical(), "400");
      EXPECT_EQ(res.value().at(r, 4).lexical(), "100");
      EXPECT_EQ(res.value().at(r, 5).lexical(), "3");
    }
  }
}

TEST_F(HifunEvalTest, CountWithIdentityMeasure) {
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Property(kInv + "takesPlaceAt");
  q.measuring = AttrExpr::Identity();
  q.ops = {AggOp::kCount};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok());
  auto rows = Rows(res.value());
  EXPECT_EQ(rows["b3"], 3);
}

TEST_F(HifunEvalTest, NoGroupingGlobalAggregate) {
  Query q;
  q.root_class = kInv + "Invoice";
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum};
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.value().num_rows(), 1u);
  EXPECT_EQ(res.value().at(0, 0).lexical(), "1500");
}

TEST_F(HifunEvalTest, MultiValuedAttributeIsPreconditionError) {
  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  // Make takesPlaceAt multi-valued on d1.
  g.Add(rdf::Term::Iri(kInv + "d1"), rdf::Term::Iri(kInv + "takesPlaceAt"),
        rdf::Term::Iri(kInv + "b2"));
  Query q;
  q.root_class = kInv + "Invoice";
  q.grouping = AttrExpr::Property(kInv + "takesPlaceAt");
  q.measuring = AttrExpr::Property(kInv + "inQuantity");
  q.ops = {AggOp::kSum};
  auto res = Evaluator(g).Evaluate(q);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kPrecondition);
}

TEST_F(HifunEvalTest, EmptyOpsRejected) {
  Query q;
  q.measuring = AttrExpr::Identity();
  auto res = Evaluator(g_).Evaluate(q);
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

// ---------------- context / prerequisites ----------------

TEST(ContextTest, ItemsAndCandidates) {
  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  AnalysisContext ctx(g, kInv + "Invoice");
  EXPECT_EQ(ctx.items().size(), 7u);
  auto& cands = ctx.candidate_attributes();
  EXPECT_NE(std::find(cands.begin(), cands.end(), kInv + "inQuantity"),
            cands.end());
  EXPECT_NE(std::find(cands.begin(), cands.end(), kInv + "takesPlaceAt"),
            cands.end());
}

TEST(ContextTest, FunctionalAndTotalChecks) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  AnalysisContext ctx(g, kEx + "Laptop");
  AttributeReport rep = ctx.Check(g, kEx + "price");
  EXPECT_TRUE(rep.hifun_ready());
  EXPECT_EQ(rep.items, 3u);
  EXPECT_EQ(rep.with_value, 3u);
}

TEST(ContextTest, DetectsMissingValues) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 50;
  opt.missing_price_rate = 0.5;
  workload::GenerateProductKg(&g, opt);
  AnalysisContext ctx(g, kEx + "Laptop");
  AttributeReport rep = ctx.Check(g, kEx + "price");
  EXPECT_GT(rep.missing, 0u);
  EXPECT_FALSE(rep.total());
  EXPECT_TRUE(rep.functional());
}

TEST(ContextTest, DetectsMultiValued) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 10;
  opt.companies = 10;
  opt.multi_founder_rate = 1.0;
  workload::GenerateProductKg(&g, opt);
  AnalysisContext ctx(g, kEx + "Company");
  AttributeReport rep = ctx.Check(g, kEx + "founder");
  // Some company got two distinct founders (rate 1.0, random picks could
  // collide but with 40 persons it is overwhelmingly likely at least once).
  EXPECT_GT(rep.multi_valued, 0u);
  EXPECT_FALSE(rep.functional());
}

TEST(ContextTest, EmptyRootSelectsAllSubjects) {
  rdf::Graph g;
  workload::BuildInvoicesExample(&g);
  AnalysisContext ctx(g, "");
  EXPECT_GT(ctx.items().size(), 7u);
}

// ---------------- textual parser ----------------

class HifunParserTest : public ::testing::Test {
 protected:
  rdf::PrefixMap prefixes_;
  Result<Query> Parse(const std::string& text) {
    return ParseHifun(text, prefixes_, kInv);
  }
};

TEST_F(HifunParserTest, SimpleTriple) {
  auto q = Parse("(takesPlaceAt, inQuantity, SUM)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().grouping->kind, AttrExpr::Kind::kProperty);
  EXPECT_EQ(q.value().grouping->property, kInv + "takesPlaceAt");
  EXPECT_EQ(q.value().ops.size(), 1u);
  EXPECT_EQ(q.value().ops[0], AggOp::kSum);
}

TEST_F(HifunParserTest, CompositionOuterFirst) {
  auto q = Parse("(brand o delivers, inQuantity, SUM)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const AttrExpr& g = *q.value().grouping;
  ASSERT_EQ(g.kind, AttrExpr::Kind::kCompose);
  // Application order: delivers first.
  EXPECT_EQ(g.args[0]->property, kInv + "delivers");
  EXPECT_EQ(g.args[1]->property, kInv + "brand");
}

TEST_F(HifunParserTest, PairingAndDerived) {
  auto q = Parse("((takesPlaceAt x MONTH(hasDate)), inQuantity, SUM+AVG)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().grouping->kind, AttrExpr::Kind::kPair);
  EXPECT_EQ(q.value().grouping->args[1]->kind, AttrExpr::Kind::kDerived);
  EXPECT_EQ(q.value().ops.size(), 2u);
}

TEST_F(HifunParserTest, RestrictionsAndHaving) {
  auto q = Parse(
      "(takesPlaceAt / = b1, inQuantity / >= 2, SUM / > 1000) over Invoice");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().group_restrictions.size(), 1u);
  EXPECT_EQ(q.value().group_restrictions[0].value.lexical(), kInv + "b1");
  ASSERT_EQ(q.value().measure_restrictions.size(), 1u);
  EXPECT_EQ(q.value().measure_restrictions[0].op, ">=");
  ASSERT_TRUE(q.value().result_restriction.has_value());
  EXPECT_EQ(q.value().result_restriction->value, 1000);
  EXPECT_EQ(q.value().root_class, kInv + "Invoice");
}

TEST_F(HifunParserTest, RestrictionWithPath) {
  auto q = Parse("(takesPlaceAt, inQuantity / delivers.brand = BrandA, SUM)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().measure_restrictions.size(), 1u);
  EXPECT_EQ(q.value().measure_restrictions[0].path.size(), 2u);
}

TEST_F(HifunParserTest, EpsAndIdentity) {
  auto q = Parse("(eps, ID, COUNT)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().grouping, nullptr);
  EXPECT_EQ(q.value().measuring->kind, AttrExpr::Kind::kIdentity);
}

TEST_F(HifunParserTest, ParseErrors) {
  EXPECT_FALSE(Parse("takesPlaceAt, inQuantity, SUM").ok());
  EXPECT_FALSE(Parse("(takesPlaceAt, inQuantity)").ok());
  EXPECT_FALSE(Parse("(takesPlaceAt, inQuantity, FROB)").ok());
  EXPECT_FALSE(Parse("(takesPlaceAt, inQuantity, SUM) trailing").ok());
}

TEST_F(HifunParserTest, ToStringRoundTripsParseably) {
  auto q = Parse("(brand o delivers / = b1, inQuantity / >= 2, SUM+AVG / > 10)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::string text = q.value().ToString();
  EXPECT_NE(text.find("brand o delivers"), std::string::npos);
  EXPECT_NE(text.find("SUM+AVG"), std::string::npos);
}

}  // namespace
}  // namespace rdfa::hifun
