// Tests for the common layer (Status/Result/macros, string utilities) and
// small cross-cutting behaviors: facet ordering, the transform button, and
// SELECT expressions over aggregates.

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "analytics/session.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "fs/facets.h"
#include "fs/session.h"
#include "rdf/turtle.h"
#include "sparql/executor.h"
#include "sparql/value.h"
#include "workload/products.h"

namespace rdfa {
namespace {

// ---------------- Morsel runner ----------------

using MorselRange = std::pair<size_t, size_t>;

TEST(MorselRunnerTest, ARunUsesNoMoreThreadsThanItsBudget) {
  // The shared pool has at least 3 workers, so without the cap 8 sleeping
  // morsels would spread over 4 threads.
  ASSERT_GE(ThreadPool::Shared().worker_count(), 3u);
  std::mutex mu;
  std::set<std::thread::id> ids;
  auto parts = RunMorsels<MorselRange>(
      8, /*threads=*/2, /*min_grain=*/1,
      [&](size_t lo, size_t hi, MorselRange* part) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ids.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        *part = {lo, hi};
      });
  ASSERT_EQ(parts.size(), 8u);
  for (size_t m = 0; m < parts.size(); ++m) {
    EXPECT_EQ(parts[m], MorselRange(m, m + 1)) << "parts in morsel order";
  }
  EXPECT_LE(ids.size(), 2u);
}

TEST(MorselRunnerTest, SerialAndSmallRunsStayOnTheCaller) {
  // threads <= 1, or fewer than two grains of items: one inline call over
  // the whole range.
  for (auto [n, threads] : {std::pair<size_t, int>{1000, 1}, {127, 4}}) {
    std::set<std::thread::id> ids;
    auto parts = RunMorsels<MorselRange>(
        n, threads, kMinMorselItems,
        [&](size_t lo, size_t hi, MorselRange* part) {
          ids.insert(std::this_thread::get_id());
          *part = {lo, hi};
        });
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], MorselRange(0, n));
    EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
  }
  // From two grains on, a parallel budget splits the items.
  auto parts = RunMorsels<MorselRange>(
      128, 4, kMinMorselItems,
      [](size_t lo, size_t hi, MorselRange* part) { *part = {lo, hi}; });
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], MorselRange(64, 128));
}

// ---------------- Status / Result ----------------

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status err = Status::ParseError("bad input");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kParseError);
  EXPECT_EQ(err.ToString(), "ParseError: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kTypeError, StatusCode::kUnsupported,
        StatusCode::kPrecondition, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  RDFA_ASSIGN_OR_RETURN(int h, Half(x));
  RDFA_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, ValueAndErrorPaths) {
  EXPECT_TRUE(Half(4).ok());
  EXPECT_EQ(Half(4).value(), 2);
  EXPECT_FALSE(Half(3).ok());
  EXPECT_EQ(Half(3).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // second Half fails
  EXPECT_EQ(Half(3).value_or(-1), -1);
  EXPECT_EQ(Half(4).value_or(-1), 2);
}

TEST(ResultTest, StatusOfOkResultIsOk) {
  Result<std::string> r = std::string("x");
  EXPECT_TRUE(r.status().ok());
}

// ---------------- string utilities ----------------

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(JoinStrings({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(StringUtilTest, TrimAndCase) {
  EXPECT_EQ(TrimWhitespace("  x \t\n"), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(ToUpperAscii("SeLeCt"), "SELECT");
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("GROUP", "groups"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("_path3", "_path"));
  EXPECT_FALSE(StartsWith("_p", "_path"));
  EXPECT_TRUE(EndsWith("file.ttl", ".ttl"));
  EXPECT_FALSE(EndsWith("ttl", ".ttl"));
}

TEST(StringUtilTest, EscapeRoundTrip) {
  std::string nasty = "line1\nline2\t\"q\"\\end\r";
  EXPECT_EQ(UnescapeLiteral(EscapeLiteral(nasty)), nasty);
}

TEST(StringUtilTest, FormatNumber) {
  EXPECT_EQ(FormatNumber(3), "3");
  EXPECT_EQ(FormatNumber(-42), "-42");
  EXPECT_EQ(FormatNumber(2.5), "2.5");
  EXPECT_EQ(FormatNumber(0.125), "0.125");
  EXPECT_EQ(FormatNumber(1e6), "1000000");
}

// ---------------- facet ordering ----------------

TEST(FacetOrderTest, SortAndTruncate) {
  rdf::Graph g;
  fs::PropertyFacet facet;
  auto add = [&](int value, size_t count) {
    facet.values.push_back({g.terms().Intern(rdf::Term::Integer(value)),
                            count});
  };
  add(5, 2);
  add(1, 7);
  add(9, 4);

  fs::SortFacetValues(g, fs::FacetOrder::kCountDescending, &facet);
  EXPECT_EQ(facet.values[0].count, 7u);
  EXPECT_EQ(facet.values[2].count, 2u);

  fs::SortFacetValues(g, fs::FacetOrder::kValueAscending, &facet);
  EXPECT_EQ(g.terms().Get(facet.values[0].value).lexical(), "1");
  EXPECT_EQ(g.terms().Get(facet.values[2].value).lexical(), "9");

  size_t cut = fs::TruncateFacetValues(
      g, fs::FacetOrder::kCountDescending, 2, &facet);
  EXPECT_EQ(cut, 1u);
  ASSERT_EQ(facet.values.size(), 2u);
  EXPECT_EQ(facet.values[0].count, 7u);
  EXPECT_EQ(facet.values[1].count, 4u);
}

TEST(FacetOrderTest, CountTiesAndMixedValuesHaveAPinnedOrder) {
  rdf::Graph g;
  fs::PropertyFacet facet;
  auto add = [&](const rdf::Term& term, size_t count) {
    facet.values.push_back({g.terms().Intern(term), count});
  };
  add(rdf::Term::Integer(10), 3);
  add(rdf::Term::Iri("http://e.org/b"), 3);
  add(rdf::Term::Integer(9), 3);
  add(rdf::Term::Literal("apple"), 5);
  add(rdf::Term::Double(7.0), 1);  // numerically equal to 7 below
  add(rdf::Term::Iri("http://e.org/a"), 1);
  add(rdf::Term::Integer(7), 1);
  add(rdf::Term::Double(2.5), 1);
  auto order = [&] {
    std::vector<std::string> out;
    for (const fs::ValueCount& vc : facet.values) {
      const rdf::Term& t = g.terms().Get(vc.value);
      out.push_back(t.lexical() + (t.is_iri() ? "" : "^" + t.datatype()) +
                    "/" + std::to_string(vc.count));
    }
    return out;
  };
  const std::string i = "^" + std::string(rdf::xsd::kInteger);
  const std::string d = "^" + std::string(rdf::xsd::kDouble);
  const std::string seven_d =
      g.terms().Get(facet.values[4].value).lexical() + d;
  const std::string apple =
      "apple^" + g.terms().Get(facet.values[3].value).datatype();

  // Count first; ties numeric when both parse, else lexical (digits sort
  // before letters); equal keys keep their input order (stable).
  fs::SortFacetValues(g, fs::FacetOrder::kCountDescending, &facet);
  EXPECT_EQ(order(), (std::vector<std::string>{
                         apple + "/5", "9" + i + "/3", "10" + i + "/3",
                         "http://e.org/b/3", "2.5" + d + "/1",
                         seven_d + "/1", "7" + i + "/1",
                         "http://e.org/a/1"}));

  fs::SortFacetValues(g, fs::FacetOrder::kValueAscending, &facet);
  EXPECT_EQ(order(), (std::vector<std::string>{
                         "2.5" + d + "/1", seven_d + "/1", "7" + i + "/1",
                         "9" + i + "/3", "10" + i + "/3", apple + "/5",
                         "http://e.org/a/1", "http://e.org/b/3"}));
}

// ---------------- transform button ----------------

TEST(TransformButtonTest, RepairsMultiValuedAttribute) {
  rdf::Graph g;
  Status st = rdf::ParseTurtle(R"(
    @prefix ex: <http://e.org/> .
    ex:c1 a ex:Company ; ex:founder ex:p1 , ex:p2 , ex:p3 .
    ex:c2 a ex:Company ; ex:founder ex:p3 .
    ex:p1 ex:nationality ex:US .
    ex:p2 ex:nationality ex:FR .
    ex:p3 ex:nationality ex:FR .
  )",
                               &g);
  ASSERT_TRUE(st.ok()) << st.ToString();

  analytics::AnalyticsSession s(&g);
  ASSERT_TRUE(s.fs().ClickClass("http://e.org/Company").ok());
  auto feature = s.ApplyTransform(
      analytics::AnalyticsSession::TransformKind::kPathMaxFreq,
      {"http://e.org/founder", "http://e.org/nationality"}, "mainNat");
  ASSERT_TRUE(feature.ok()) << feature.status().ToString();

  analytics::GroupingSpec grp;
  grp.path = {feature.value()};
  ASSERT_TRUE(s.ClickGroupBy(grp).ok());
  analytics::MeasureSpec m;
  m.ops = {hifun::AggOp::kCount};
  ASSERT_TRUE(s.ClickAggregate(m).ok());
  auto af = s.Execute();
  ASSERT_TRUE(af.ok()) << af.status().ToString();
  // Both companies map to FR (c1's max-freq nationality is FR 2:1).
  ASSERT_EQ(af.value().table().num_rows(), 1u);
  EXPECT_EQ(*sparql::Value::FromTerm(af.value().table().at(0, 1)).AsNumeric(),
            2);
}

TEST(TransformButtonTest, ArityValidation) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  analytics::AnalyticsSession s(&g);
  EXPECT_EQ(s.ApplyTransform(
                 analytics::AnalyticsSession::TransformKind::kExists,
                 {"a", "b"}, "f")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ApplyTransform(
                 analytics::AnalyticsSession::TransformKind::kPathMaxFreq,
                 {"a"}, "f")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------- SELECT expressions over aggregates ----------------

TEST(AggregateExpressionTest, ArithmeticOverAggregates) {
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(R"(
    @prefix ex: <http://e.org/> .
    ex:i1 ex:b ex:x ; ex:q 10 .
    ex:i2 ex:b ex:x ; ex:q 30 .
    ex:i3 ex:b ex:y ; ex:q 6 .
  )",
                               &g)
                  .ok());
  auto res = sparql::ExecuteQueryString(
      &g,
      "PREFIX ex: <http://e.org/>\n"
      "SELECT ?b (SUM(?q) / COUNT(?q) AS ?mean) WHERE { ?i ex:b ?b . ?i ex:q "
      "?q . } GROUP BY ?b ORDER BY ?b");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().num_rows(), 2u);
  EXPECT_EQ(*sparql::Value::FromTerm(res.value().at(0, 1)).AsNumeric(), 20);
  EXPECT_EQ(*sparql::Value::FromTerm(res.value().at(1, 1)).AsNumeric(), 6);
}

}  // namespace
}  // namespace rdfa
