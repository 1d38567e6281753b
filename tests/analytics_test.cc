#include "analytics/session.h"

#include <gtest/gtest.h>

#include <map>

#include "analytics/answer_frame.h"
#include "rdf/namespaces.h"
#include "rdf/rdfs.h"
#include "sparql/value.h"
#include "viz/table_render.h"
#include "workload/products.h"

namespace rdfa::analytics {
namespace {

const std::string kEx = workload::kExampleNs;

class AnalyticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::BuildRunningExample(&g_);
    rdf::MaterializeRdfsClosure(&g_);
  }

  std::map<std::string, double> Rows(const sparql::ResultTable& t,
                                     size_t label_col, size_t value_col) {
    std::map<std::string, double> out;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      out[viz::DisplayTerm(t.at(r, label_col))] =
          *sparql::Value::FromTerm(t.at(r, value_col)).AsNumeric();
    }
    return out;
  }

  rdf::Graph g_;
};

TEST_F(AnalyticsTest, Example1AvgWithoutGroupBy) {
  // §5.1 Example 1: average price of laptops with 2 USB ports made by US
  // companies (no grouping).
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  ASSERT_TRUE(s.fs()
                  .ClickValue({{kEx + "manufacturer"}, {kEx + "origin"}},
                              rdf::Term::Iri(kEx + "USA"))
                  .ok());
  ASSERT_TRUE(s.fs().ClickRange({{kEx + "USBPorts"}}, 2, 2).ok());
  MeasureSpec m;
  m.path = {kEx + "price"};
  m.ops = {hifun::AggOp::kAvg};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  auto af = s.Execute();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  const auto& t = af.value().table();
  ASSERT_EQ(t.num_rows(), 1u);
  // laptop1 (900) + laptop2 (1000): avg 950.
  EXPECT_NEAR(*sparql::Value::FromTerm(t.at(0, 0)).AsNumeric(), 950, 1e-9);
}

TEST_F(AnalyticsTest, Example2CountWithGroupByPath) {
  // §5.1 Example 2: count of laptops grouped by manufacturer's country.
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  GroupingSpec grp;
  grp.path = {kEx + "manufacturer", kEx + "origin"};
  ASSERT_TRUE(s.ClickGroupBy(grp).ok());
  MeasureSpec m;
  m.ops = {hifun::AggOp::kCount};  // empty path: COUNT of items
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  auto af = s.Execute();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  auto rows = Rows(af.value().table(), 0, 1);
  EXPECT_EQ(rows["USA"], 2);
  EXPECT_EQ(rows["China"], 1);
}

TEST_F(AnalyticsTest, Fig62MultipleAggregates) {
  // Fig 6.2: average, sum and max price of laptops with 2-4 USB ports,
  // grouped by manufacturer and origin of manufacturer.
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  ASSERT_TRUE(s.fs().ClickRange({{kEx + "USBPorts"}}, 2, 4).ok());
  GroupingSpec by_man;
  by_man.path = {kEx + "manufacturer"};
  ASSERT_TRUE(s.ClickGroupBy(by_man).ok());
  GroupingSpec by_origin;
  by_origin.path = {kEx + "manufacturer", kEx + "origin"};
  ASSERT_TRUE(s.ClickGroupBy(by_origin).ok());
  MeasureSpec m;
  m.path = {kEx + "price"};
  m.ops = {hifun::AggOp::kAvg, hifun::AggOp::kSum, hifun::AggOp::kMax};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  auto af = s.Execute();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  const auto& t = af.value().table();
  EXPECT_EQ(t.num_columns(), 5u);  // 2 groupings + 3 aggregates
  EXPECT_EQ(t.num_rows(), 2u);     // (DELL, USA), (Lenovo, China)
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (viz::DisplayTerm(t.at(r, 0)) == "DELL") {
      EXPECT_NEAR(*sparql::Value::FromTerm(t.at(r, 2)).AsNumeric(), 950, 1e-9);
      EXPECT_EQ(*sparql::Value::FromTerm(t.at(r, 3)).AsNumeric(), 1900);
      EXPECT_EQ(*sparql::Value::FromTerm(t.at(r, 4)).AsNumeric(), 1000);
    }
  }
}

TEST_F(AnalyticsTest, DerivedYearGrouping) {
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  GroupingSpec g;
  g.path = {kEx + "releaseDate"};
  g.derived_function = "YEAR";
  ASSERT_TRUE(s.ClickGroupBy(g).ok());
  MeasureSpec m;
  m.path = {kEx + "price"};
  m.ops = {hifun::AggOp::kSum};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  auto af = s.Execute();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  auto rows = Rows(af.value().table(), 0, 1);
  EXPECT_EQ(rows["2021"], 2720);
}

TEST_F(AnalyticsTest, ExecuteAndExecuteDirectAgree) {
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  GroupingSpec g;
  g.path = {kEx + "manufacturer"};
  ASSERT_TRUE(s.ClickGroupBy(g).ok());
  MeasureSpec m;
  m.path = {kEx + "price"};
  m.ops = {hifun::AggOp::kAvg};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  auto via_sparql = s.Execute();
  auto direct = s.ExecuteDirect();
  ASSERT_TRUE(via_sparql.ok()) << via_sparql.status().ToString();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto a = Rows(via_sparql.value().table(), 0, 1);
  auto b = Rows(direct.value().table(), 0, 1);
  EXPECT_EQ(a.size(), b.size());
  for (const auto& [k, v] : a) EXPECT_NEAR(v, b.at(k), 1e-9);
}

TEST(AnalyticsRangeTest, RangeOnAMultiValuedPathAnswersOverTheFocus) {
  // l1 has prices 100 and 900, neither in [400, 600]; l2 has 500. The
  // range click keeps only l2, and the answer must count only l2: both
  // bounds have to hold for one price, not one bound per price.
  rdf::Graph g;
  const rdf::Term type = rdf::Term::Iri(rdf::rdfns::kType);
  const rdf::Term laptop = rdf::Term::Iri(kEx + "Laptop");
  const rdf::Term price = rdf::Term::Iri(kEx + "price");
  const rdf::Term made_by = rdf::Term::Iri(kEx + "manufacturer");
  const rdf::Term l1 = rdf::Term::Iri(kEx + "l1");
  const rdf::Term l2 = rdf::Term::Iri(kEx + "l2");
  const rdf::Term m1 = rdf::Term::Iri(kEx + "m1");
  for (const rdf::Term& l : {l1, l2}) {
    g.Add(l, type, laptop);
    g.Add(l, made_by, m1);
  }
  g.Add(l1, price, rdf::Term::Integer(100));
  g.Add(l1, price, rdf::Term::Integer(900));
  g.Add(l2, price, rdf::Term::Integer(500));

  AnalyticsSession s(&g);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  ASSERT_TRUE(s.fs().ClickRange({{kEx + "price"}}, 400, 600).ok());
  ASSERT_EQ(s.fs().current().ext.size(), 1u);
  GroupingSpec by_man;
  by_man.path = {kEx + "manufacturer"};
  ASSERT_TRUE(s.ClickGroupBy(by_man).ok());
  MeasureSpec m;
  m.ops = {hifun::AggOp::kCount};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  auto af = s.Execute();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  const auto& t = af.value().table();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(viz::DisplayTerm(t.at(0, 0)), "m1");
  EXPECT_EQ(*sparql::Value::FromTerm(t.at(0, 1)).AsNumeric(), 1);
}

TEST_F(AnalyticsTest, BuildHifunQueryRendering) {
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  GroupingSpec g;
  g.path = {kEx + "manufacturer"};
  ASSERT_TRUE(s.ClickGroupBy(g).ok());
  MeasureSpec m;
  m.path = {kEx + "price"};
  m.ops = {hifun::AggOp::kAvg};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  auto q = s.BuildHifunQuery();
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::string text = q.value().ToString();
  EXPECT_NE(text.find("manufacturer"), std::string::npos);
  EXPECT_NE(text.find("AVG"), std::string::npos);
  EXPECT_NE(text.find("over Laptop"), std::string::npos);
}

TEST_F(AnalyticsTest, NoMeasureIsPreconditionError) {
  AnalyticsSession s(&g_);
  EXPECT_EQ(s.Execute().status().code(), StatusCode::kPrecondition);
}

TEST_F(AnalyticsTest, RemoveGroupBy) {
  AnalyticsSession s(&g_);
  GroupingSpec g1, g2;
  g1.path = {kEx + "manufacturer"};
  g2.path = {kEx + "USBPorts"};
  ASSERT_TRUE(s.ClickGroupBy(g1).ok());
  ASSERT_TRUE(s.ClickGroupBy(g2).ok());
  ASSERT_TRUE(s.RemoveGroupBy(0).ok());
  ASSERT_EQ(s.groupings().size(), 1u);
  EXPECT_EQ(s.groupings()[0].path[0], kEx + "USBPorts");
  EXPECT_FALSE(s.RemoveGroupBy(5).ok());
}

TEST_F(AnalyticsTest, AnswerFrameLoadAsDataset) {
  // §5.3.3: reload the answer as a new RDF dataset.
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  GroupingSpec g;
  g.path = {kEx + "manufacturer"};
  ASSERT_TRUE(s.ClickGroupBy(g).ok());
  MeasureSpec m;
  m.path = {kEx + "price"};
  m.ops = {hifun::AggOp::kAvg};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  ASSERT_TRUE(s.Execute().ok());

  rdf::Graph af_graph;
  auto added = s.answer().LoadAsDataset(&af_graph);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  // 2 rows x (1 type + 2 attributes) = 6 triples.
  EXPECT_EQ(added.value(), 6u);
  rdf::TermId row_class = af_graph.terms().FindIri(AnswerFrame::RowClassIri());
  ASSERT_NE(row_class, rdf::kNoTermId);
}

TEST_F(AnalyticsTest, NestedQueryViaExploreAnswer) {
  // Example 4 of §5.1: restrict the average price over a threshold by
  // exploring the AF as a dataset.
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  GroupingSpec g;
  g.path = {kEx + "manufacturer"};
  ASSERT_TRUE(s.ClickGroupBy(g).ok());
  MeasureSpec m;
  m.path = {kEx + "price"};
  m.ops = {hifun::AggOp::kAvg};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  ASSERT_TRUE(s.Execute().ok());

  rdf::Graph af_graph;
  auto nested = s.ExploreAnswer(&af_graph);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  AnalyticsSession& ns = *nested.value();
  // Both manufacturers present as rows.
  EXPECT_EQ(ns.fs().current().ext.size(), 2u);
  // HAVING avg >= 900: only DELL (950) survives; Lenovo avg is 820.
  Status st = ns.fs().ClickRange({{AnswerFrame::ColumnIri("agg1")}}, 900,
                                 std::nullopt);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(ns.fs().current().ext.size(), 1u);
}

TEST_F(AnalyticsTest, ResultRestrictionHaving) {
  AnalyticsSession s(&g_);
  ASSERT_TRUE(s.fs().ClickClass(kEx + "Laptop").ok());
  GroupingSpec g;
  g.path = {kEx + "manufacturer"};
  ASSERT_TRUE(s.ClickGroupBy(g).ok());
  MeasureSpec m;
  m.path = {kEx + "price"};
  m.ops = {hifun::AggOp::kAvg};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  s.SetResultRestriction(">=", 900);
  auto af = s.Execute();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  EXPECT_EQ(af.value().table().num_rows(), 1u);
}

TEST_F(AnalyticsTest, MeasureWithNonCountNeedsPath) {
  AnalyticsSession s(&g_);
  MeasureSpec m;
  m.ops = {hifun::AggOp::kSum};
  EXPECT_EQ(s.ClickAggregate(m).code(), StatusCode::kInvalidArgument);
}

TEST_F(AnalyticsTest, ClearAnalyticsResets) {
  AnalyticsSession s(&g_);
  GroupingSpec g;
  g.path = {kEx + "manufacturer"};
  ASSERT_TRUE(s.ClickGroupBy(g).ok());
  s.ClearAnalytics();
  EXPECT_TRUE(s.groupings().empty());
  EXPECT_FALSE(s.measure().has_value());
}

}  // namespace
}  // namespace rdfa::analytics
