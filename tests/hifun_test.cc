#include <gtest/gtest.h>

#include "hifun/context.h"
#include "hifun/evaluator.h"
#include "hifun/hifun_parser.h"
#include "hifun/query.h"
#include "rdf/namespaces.h"
#include "sparql/executor.h"
#include "sparql/value.h"
#include "translator/translator.h"
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

// ---------------- lowering edge cases ----------------

// Four items of class C: each has a value v and a `p` to one of two
// objects, and each object has a date `d` (2020 for a1, 2021 for a2).
class HifunLoweringTest : public ::testing::Test {
 protected:
  static rdf::Term T(const std::string& local) {
    return rdf::Term::Iri(kEx + local);
  }
  static AttrExprPtr P(const std::string& local) {
    return AttrExpr::Property(kEx + local);
  }

  void SetUp() override {
    const rdf::Term type = rdf::Term::Iri(rdf::rdfns::kType);
    const char* const names[] = {"alpha", "Beta", "gamma", "Delta"};
    for (int i = 1; i <= 4; ++i) {
      rdf::Term item = T("i" + std::to_string(i));
      g_.Add(item, type, T("C"));
      g_.Add(item, T("p"), T(i <= 2 ? "a1" : "a2"));
      g_.Add(item, T("v"), rdf::Term::Integer(i <= 2 ? 10 : 20));
      g_.Add(item, T("name"), rdf::Term::Literal(names[i - 1]));
      g_.Add(item, T("at"),
             rdf::Term::DateTime("2021-03-0" + std::to_string(i) + "T0" +
                                 std::to_string(i % 3) + ":30:00"));
    }
    g_.Add(T("a1"), T("d"), rdf::Term::DateTime("2020-05-01T00:00:00"));
    g_.Add(T("a2"), T("d"), rdf::Term::DateTime("2021-05-01T00:00:00"));
  }

  Query SumOverC(AttrExprPtr grouping) {
    Query q;
    q.root_class = kEx + "C";
    q.grouping = std::move(grouping);
    q.measuring = P("v");
    q.ops = {AggOp::kSum};
    return q;
  }

  /// Group key (N-Triples, "|"-joined) -> the last aggregate's number.
  static std::map<std::string, double> Keyed(const sparql::ResultTable& t) {
    std::map<std::string, double> out;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::string key;
      for (size_t c = 0; c + 1 < t.num_columns(); ++c) {
        key += t.at(r, c).ToNTriples() + "|";
      }
      out[key] = *sparql::Value::FromTerm(t.at(r, t.num_columns() - 1))
                      .AsNumeric();
    }
    return out;
  }

  /// The direct answer, after checking the translated SPARQL's equals it.
  std::map<std::string, double> BothRoutes(const Query& q) {
    auto direct = Evaluator(g_).Evaluate(q);
    EXPECT_TRUE(direct.ok()) << direct.status().ToString();
    auto text = translator::TranslateToSparql(q);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    if (!direct.ok() || !text.ok()) return {};
    auto via_sparql = sparql::ExecuteQueryString(&g_, text.value());
    EXPECT_TRUE(via_sparql.ok()) << via_sparql.status().ToString();
    if (!via_sparql.ok()) return {};
    auto answer = Keyed(direct.value());
    EXPECT_EQ(answer, Keyed(via_sparql.value())) << text.value();
    return answer;
  }

  rdf::Graph g_;
};

TEST_F(HifunLoweringTest, DerivedAttributeInsideACompositionWalksItsArgument) {
  // YEAR(d) o p: the year of p's object, not of p's object itself.
  auto rows = BothRoutes(SumOverC(
      AttrExpr::Compose({P("p"), AttrExpr::Derived("YEAR", P("d"))})));
  const std::string year = std::string("^^<") + rdf::xsd::kInteger + ">|";
  EXPECT_EQ(rows, (std::map<std::string, double>{{"\"2020\"" + year, 20},
                                                 {"\"2021\"" + year, 40}}));
}

TEST_F(HifunLoweringTest, DerivedStepThenHopLooksTheLiteralUpAsAResource) {
  // label o YEAR(d) o p: the year literal is a subject only for 2020.
  g_.Add(rdf::Term::Integer(2020), T("label"), rdf::Term::Literal("twenty"));
  Query q = SumOverC(AttrExpr::Compose(
      {P("p"), AttrExpr::Derived("YEAR", P("d")), P("label")}));
  auto res = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().num_rows(), 1u);
  EXPECT_EQ(res.value().at(0, 0), rdf::Term::Literal("twenty"));
  EXPECT_EQ(res.value().at(0, 1).lexical(), "20");
}

TEST_F(HifunLoweringTest, EmptyPathRestrictionOnAPairingFailsOnlyOnAnItem) {
  Query q = SumOverC(AttrExpr::Pair({P("p"), P("v")}));
  Restriction r;
  r.value = T("a1");
  q.group_restrictions.push_back(r);
  q.root_class = kEx + "NoSuchClass";  // D is empty: nothing is walked
  auto empty = Evaluator(g_).Evaluate(q);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty.value().num_rows(), 0u);
  q.root_class = kEx + "C";
  auto res = Evaluator(g_).Evaluate(q);
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(res.status().message(),
            "a restriction with an empty path cannot apply to a pairing");
}

TEST_F(HifunLoweringTest, MultiValuedFirstHopAheadOfAMissingProperty) {
  g_.Add(T("i3"), T("p"), T("a1"));
  auto res = Evaluator(g_).Evaluate(
      SumOverC(AttrExpr::Compose({P("p"), P("notInTheGraph")})));
  EXPECT_EQ(res.status().code(), StatusCode::kPrecondition);
  EXPECT_EQ(res.status().message(),
            "property <" + kEx +
                "p> is multi-valued on an item; apply a feature-creation "
                "operator (Table 4.1) before analysis");
}

TEST_F(HifunLoweringTest, HoursStrAndUcaseGroupKeysMatchTheSparqlRoute) {
  auto hours = BothRoutes(SumOverC(AttrExpr::Derived("HOURS", P("at"))));
  EXPECT_EQ(hours.size(), 3u);  // hours 1, 2 and 0 (twice)
  auto str = BothRoutes(SumOverC(AttrExpr::Derived("STR", P("p"))));
  EXPECT_EQ(str, (std::map<std::string, double>{
                     {"\"" + kEx + "a1\"|", 20}, {"\"" + kEx + "a2\"|", 40}}));
  auto ucase = BothRoutes(SumOverC(AttrExpr::Pair(
      {AttrExpr::Derived("UCASE", P("name")), AttrExpr::Derived("YEAR",
       AttrExpr::Compose({P("p"), P("d")}))})));
  EXPECT_EQ(ucase.size(), 4u);
  EXPECT_EQ(ucase.count(std::string("\"BETA\"|\"2020\"^^<") +
                        rdf::xsd::kInteger + ">|"),
            1u);
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
