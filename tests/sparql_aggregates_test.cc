#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "rdf/namespaces.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "rdf/turtle.h"
#include "viz/table_render.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa::sparql {
namespace {

class AggregatesTest : public ::testing::Test {
 protected:
  void SetUp() override { workload::BuildInvoicesExample(&g_); }

  ResultTable Run(const std::string& q) {
    auto res = ExecuteQueryString(&g_, q);
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
    return res.ok() ? res.value() : ResultTable();
  }

  // branch local name -> aggregate value (first agg column).
  std::map<std::string, double> ByBranch(const ResultTable& t) {
    std::map<std::string, double> out;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      out[viz::LocalName(t.at(r, 0).lexical())] =
          *Value::FromTerm(t.at(r, 1)).AsNumeric();
    }
    return out;
  }

  rdf::Graph g_;
};

constexpr char kPfx[] = "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n";

TEST_F(AggregatesTest, SumGroupByMatchesPaperExample) {
  // §2.5: total quantities per branch: b1=300, b2=600, b3=600.
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT ?b (SUM(?q) AS ?tot) WHERE { ?i "
                      "inv:takesPlaceAt ?b . ?i inv:inQuantity ?q . } GROUP "
                      "BY ?b");
  auto by_branch = ByBranch(t);
  EXPECT_EQ(by_branch["b1"], 300);
  EXPECT_EQ(by_branch["b2"], 600);
  EXPECT_EQ(by_branch["b3"], 600);
}

TEST_F(AggregatesTest, CountPerGroup) {
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT ?b (COUNT(?i) AS ?n) WHERE { ?i "
                      "inv:takesPlaceAt ?b . } GROUP BY ?b");
  auto by_branch = ByBranch(t);
  EXPECT_EQ(by_branch["b1"], 2);
  EXPECT_EQ(by_branch["b2"], 2);
  EXPECT_EQ(by_branch["b3"], 3);
}

TEST_F(AggregatesTest, CountStar) {
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT (COUNT(*) AS ?n) WHERE { ?i a inv:Invoice . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).lexical(), "7");
}

TEST_F(AggregatesTest, AvgMinMax) {
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT (AVG(?q) AS ?a) (MIN(?q) AS ?mn) (MAX(?q) AS "
                      "?mx) WHERE { ?i inv:inQuantity ?q . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_NEAR(*Value::FromTerm(t.at(0, 0)).AsNumeric(), 1500.0 / 7, 1e-9);
  EXPECT_EQ(t.at(0, 1).lexical(), "100");
  EXPECT_EQ(t.at(0, 2).lexical(), "400");
}

TEST_F(AggregatesTest, CountDistinct) {
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT (COUNT(DISTINCT ?b) AS ?n) WHERE { ?i "
                      "inv:takesPlaceAt ?b . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).lexical(), "3");
}

TEST_F(AggregatesTest, HavingFiltersGroups) {
  // Paper §4.2.3 but with threshold 500: only b2 and b3 qualify.
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT ?b (SUM(?q) AS ?tot) WHERE { ?i "
                      "inv:takesPlaceAt ?b . ?i inv:inQuantity ?q . } GROUP "
                      "BY ?b HAVING (SUM(?q) > 500)");
  EXPECT_EQ(t.num_rows(), 2u);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_GT(*Value::FromTerm(t.at(r, 1)).AsNumeric(), 500);
  }
}

TEST_F(AggregatesTest, GroupByDerivedMonth) {
  // §4.2.4 derived attribute: totals per month: Jan=500, Feb=900, Mar=100.
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT (MONTH(?d) AS ?m) (SUM(?q) AS ?tot) WHERE { ?i "
                      "inv:hasDate ?d . ?i inv:inQuantity ?q . } GROUP BY "
                      "MONTH(?d) ORDER BY ?m");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.at(0, 1).lexical(), "500");
  EXPECT_EQ(t.at(1, 1).lexical(), "900");
  EXPECT_EQ(t.at(2, 1).lexical(), "100");
}

TEST_F(AggregatesTest, PairingGroupByTwoAttributes) {
  // §4.2.4 pairing: by branch and product.
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT ?b ?p (SUM(?q) AS ?tot) WHERE { ?i "
                      "inv:takesPlaceAt ?b . ?i inv:delivers ?p . ?i "
                      "inv:inQuantity ?q . } GROUP BY ?b ?p");
  // b1 has p1+p2, b2 has p1+p2, b3 has p1+p2 -> 6 groups.
  EXPECT_EQ(t.num_rows(), 6u);
  double total = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    total += *Value::FromTerm(t.at(r, 2)).AsNumeric();
  }
  EXPECT_EQ(total, 1500);
}

TEST_F(AggregatesTest, CompositionGroupByBrand) {
  // §4.2.4 composition brand ∘ delivers.
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT ?br (SUM(?q) AS ?tot) WHERE { ?i inv:delivers "
                      "?p . ?p inv:brand ?br . ?i inv:inQuantity ?q . } GROUP "
                      "BY ?br ORDER BY ?br");
  ASSERT_EQ(t.num_rows(), 2u);
  // BrandA: p1 quantities 200+200+100+100 = 600; BrandB: 100+400+400 = 900.
  EXPECT_EQ(t.at(0, 1).lexical(), "600");
  EXPECT_EQ(t.at(1, 1).lexical(), "900");
}

TEST_F(AggregatesTest, GroupConcatAndSample) {
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT ?b (GROUP_CONCAT(?q ; SEPARATOR=\"+\") AS ?qs) "
                      "(SAMPLE(?q) AS ?one) WHERE { ?i inv:takesPlaceAt ?b . "
                      "?i inv:inQuantity ?q . } GROUP BY ?b ORDER BY ?b");
  ASSERT_EQ(t.num_rows(), 3u);
  // b1 concat contains both quantities.
  std::string qs = t.at(0, 1).lexical();
  EXPECT_NE(qs.find("200"), std::string::npos);
  EXPECT_NE(qs.find("100"), std::string::npos);
  EXPECT_FALSE(t.at(0, 2).lexical().empty());
}

TEST_F(AggregatesTest, AggregateOverEmptySolution) {
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT (COUNT(?x) AS ?n) (SUM(?x) AS ?s) WHERE { ?x a "
                      "inv:Nothing . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).lexical(), "0");
  EXPECT_EQ(t.at(0, 1).lexical(), "0");
}

TEST_F(AggregatesTest, FullPaperExampleWithFilterAndHaving) {
  // §4.2.5: totals by branch and brand for January, quantity >= 2, groups
  // with total > 250 (adjusted threshold for the small dataset).
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT ?x2 ?x5 (SUM(?x3) AS ?tot) WHERE {\n"
                      "?x1 inv:takesPlaceAt ?x2 .\n"
                      "?x1 inv:inQuantity ?x3 .\n"
                      "?x1 inv:delivers ?x4 .\n"
                      "?x4 inv:brand ?x5 .\n"
                      "?x1 inv:hasDate ?x6 .\n"
                      "FILTER((MONTH(?x6) = 1) && (?x3 >= 2))\n"
                      "} GROUP BY ?x2 ?x5 HAVING (SUM(?x3) > 250)");
  // January: d1 (b1,p1,200), d2 (b1,p2,100), d3 (b2,p1,200).
  // Groups: (b1,BrandA)=200, (b1,BrandB)=100, (b2,BrandA)=200 — none > 250.
  EXPECT_EQ(t.num_rows(), 0u);
  ResultTable t2 = Run(std::string(kPfx) +
                       "SELECT ?x2 ?x5 (SUM(?x3) AS ?tot) WHERE {\n"
                       "?x1 inv:takesPlaceAt ?x2 .\n"
                       "?x1 inv:inQuantity ?x3 .\n"
                       "?x1 inv:delivers ?x4 .\n"
                       "?x4 inv:brand ?x5 .\n"
                       "?x1 inv:hasDate ?x6 .\n"
                       "FILTER((MONTH(?x6) = 1) && (?x3 >= 2))\n"
                       "} GROUP BY ?x2 ?x5 HAVING (SUM(?x3) > 150)");
  EXPECT_EQ(t2.num_rows(), 2u);
}

TEST_F(AggregatesTest, OrderByAggregateAlias) {
  ResultTable t = Run(std::string(kPfx) +
                      "SELECT ?b (SUM(?q) AS ?tot) WHERE { ?i "
                      "inv:takesPlaceAt ?b . ?i inv:inQuantity ?q . } GROUP "
                      "BY ?b ORDER BY DESC(?tot) ?b");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(*Value::FromTerm(t.at(0, 1)).AsNumeric(), 600);
  EXPECT_EQ(*Value::FromTerm(t.at(2, 1)).AsNumeric(), 300);
}

TEST(CountDistinctStarTest, CountsDistinctSolutionsNotRows) {
  // Each laptop's price solution arrives twice through the UNION; DISTINCT *
  // counts it once.
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 100;
  workload::GenerateProductKg(&g, opt);
  const std::string ex = workload::kExampleNs;
  auto res = ExecuteQueryString(
      &g, "SELECT (COUNT(DISTINCT *) AS ?d) (COUNT(*) AS ?n) WHERE { { ?l <" +
              ex + "price> ?p } UNION { ?l <" + ex + "price> ?p } }");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().num_rows(), 1u);
  EXPECT_EQ(res.value().at(0, 0).lexical(), "100");
  EXPECT_EQ(res.value().at(0, 1).lexical(), "200");

  // Per group as well: every laptop's solution still arrives twice.
  const std::string price = "<" + ex + "price>";
  auto grouped = ExecuteQueryString(
      &g, "SELECT ?m (COUNT(DISTINCT *) AS ?d) (COUNT(*) AS ?n) WHERE { ?l <" +
              ex + "manufacturer> ?m . { ?l " + price + " ?p } UNION { ?l " +
              price + " ?p } } GROUP BY ?m");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_GT(grouped.value().num_rows(), 1u);
  for (size_t r = 0; r < grouped.value().num_rows(); ++r) {
    EXPECT_EQ(2 * std::stoi(grouped.value().at(r, 1).lexical()),
              std::stoi(grouped.value().at(r, 2).lexical()));
  }
}

// GROUP BY hashes key ids but must group and order exactly like the
// std::map over rendered keys it replaced: rows whose keys render alike
// ("5"^^xsd:integer and "05"^^xsd:int both render as 5) share a group, the
// group shows its first row's term, and groups come out in the map's order
// of the rendered key tuples — with unbound keys, YEAR() keys and keys of
// every term kind.
TEST(GroupByIdKeysTest, GroupsAndOrdersLikeTheRenderedKeyMap) {
  namespace xsd = rdf::xsd;
  using rdf::Term;
  const std::vector<Term> keys = {
      Term::Iri("urn:v:b"),
      Term::TypedLiteral("5", xsd::kInteger),
      Term::Literal("abc"),
      Term::Iri("urn:v:a"),
      Term::TypedLiteral("05", xsd::kInt),
      Term::TypedLiteral("1.50", xsd::kDecimal),
      Term::LangLiteral("abc", "en"),
      Term::Blank("k0"),
      Term::TypedLiteral("1.5", xsd::kDecimal),
      Term::TypedLiteral("abc", xsd::kString),
      Term::TypedLiteral("true", xsd::kBoolean),
      Term::TypedLiteral("1", xsd::kBoolean),
      Term::TypedLiteral("12abc", xsd::kInteger),
  };
  const std::vector<Term> dates = {
      Term::TypedLiteral("2021-01-01T00:00:00", xsd::kDateTime),
      Term::TypedLiteral("2020-05-01", xsd::kDate),
      Term::TypedLiteral("19-x", xsd::kDate),
      Term::TypedLiteral("2020-12-31", xsd::kDate),
  };
  rdf::Graph g;
  const Term type = Term::Iri(rdf::rdfns::kType);
  const Term item = Term::Iri("urn:Item");
  for (int i = 0; i < 60; ++i) {
    const Term s = Term::Iri("urn:i:" + std::to_string((i * 37) % 60));
    g.Add(s, type, item);
    if (i % 7 != 3) g.Add(s, Term::Iri("urn:k"), keys[(i * 5) % keys.size()]);
    if (i % 11 == 2) g.Add(s, Term::Iri("urn:k"), keys[i % keys.size()]);
    if (i % 5 != 0) g.Add(s, Term::Iri("urn:d"), dates[i % dates.size()]);
  }
  const std::string where =
      " WHERE { ?i a <urn:Item> . OPTIONAL { ?i <urn:k> ?k } "
      "OPTIONAL { ?i <urn:d> ?d } }";
  auto run = [&](const std::string& q) {
    auto res = ExecuteQueryString(&g, q);
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
    return res.ok() ? std::move(res).value() : ResultTable();
  };
  // The same solutions ungrouped, in the order grouping reads them.
  const ResultTable flat = run("SELECT ?i ?k (YEAR(?d) AS ?y) ?d" + where);
  ASSERT_GT(flat.num_rows(), 60u);  // a few items carry two keys
  auto render = [](const Term& t) {
    return ResultTable::IsUnbound(t)
               ? std::string("\x01unbound")
               : Value::FromTerm(t).ToTerm().ToNTriples();
  };
  struct Group {
    size_t first_row = 0;
    size_t rows = 0;
    size_t dated = 0;  // rows binding ?d
  };
  std::map<std::vector<std::string>, Group> by_k, by_k_year;
  for (size_t r = 0; r < flat.num_rows(); ++r) {
    for (auto [map, key] :
         {std::pair{&by_k, std::vector<std::string>{render(flat.at(r, 1))}},
          std::pair{&by_k_year,
                    std::vector<std::string>{render(flat.at(r, 1)),
                                             render(flat.at(r, 2))}}}) {
      Group& group = map->try_emplace(key, Group{r, 0, 0}).first->second;
      ++group.rows;
      if (!ResultTable::IsUnbound(flat.at(r, 3))) ++group.dated;
    }
  }
  ASSERT_LT(by_k.size(), keys.size() + 1);  // some keys render alike

  const ResultTable t1 =
      run("SELECT ?k (COUNT(*) AS ?n) (SAMPLE(?i) AS ?s)" + where +
          " GROUP BY ?k");
  ASSERT_EQ(t1.num_rows(), by_k.size());
  size_t r = 0;
  for (const auto& [key, group] : by_k) {
    EXPECT_EQ(t1.at(r, 0), flat.at(group.first_row, 1)) << "group " << r;
    EXPECT_EQ(t1.at(r, 1).lexical(), std::to_string(group.rows));
    EXPECT_EQ(t1.at(r, 2), flat.at(group.first_row, 0));
    ++r;
  }

  const ResultTable t2 =
      run("SELECT ?k (YEAR(?d) AS ?y) (COUNT(?i) AS ?n) (COUNT(?d) AS ?nd)" +
          where + " GROUP BY ?k YEAR(?d)");
  ASSERT_EQ(t2.num_rows(), by_k_year.size());
  r = 0;
  for (const auto& [key, group] : by_k_year) {
    EXPECT_EQ(t2.at(r, 0), flat.at(group.first_row, 1)) << "group " << r;
    EXPECT_EQ(t2.at(r, 1), flat.at(group.first_row, 2)) << "group " << r;
    EXPECT_EQ(t2.at(r, 2).lexical(), std::to_string(group.rows));
    EXPECT_EQ(t2.at(r, 3).lexical(), std::to_string(group.dated));
    ++r;
  }
}

// SUM, AVG, MIN and MAX of a bare variable fold from the dictionary's
// decoded values, and YEAR/MONTH/DAY of a variable read its decoded date;
// wrapping the variable in COALESCE forces the per-row Value path. The two
// must give byte-identical tables over groups of every mix of kinds:
// integers (with int64 overflow), doubles, NaN, numeric-looking terms,
// malformed numbers, non-numbers and unbound values.
TEST(ColumnFoldTest, FoldsMatchThePerRowValuePath) {
  namespace xsd = rdf::xsd;
  using rdf::Term;
  const std::vector<std::vector<Term>> pools = {
      {Term::Integer(3), Term::Integer(-8), Term::TypedLiteral("05", xsd::kInt),
       Term::TypedLiteral("12", xsd::kLong)},
      {Term::Integer(INT64_MAX), Term::Integer(INT64_MAX - 1),
       Term::Integer(INT64_MIN), Term::Integer(7),
       Term::TypedLiteral("12345678901234567890", xsd::kInteger)},
      // Equal numbers that print differently: MIN/MAX keep the first.
      {Term::Integer(2), Term::Literal("2"),
       Term::TypedLiteral("2.50", xsd::kDecimal),
       Term::TypedLiteral("2.5", xsd::kDouble), Term::Literal("42"),
       Term::TypedLiteral("1e1", xsd::kInteger),
       Term::TypedLiteral("-0", xsd::kDouble), Term::Integer(0)},
      {Term::TypedLiteral("NaN", xsd::kDouble), Term::Integer(1),
       Term::TypedLiteral("INF", xsd::kDouble), Term::Integer(-1)},
      {Term::Integer(4), Term::Literal("abc"), Term::Iri("urn:x"),
       Term::TypedLiteral("true", xsd::kBoolean),
       Term::TypedLiteral("12abc", xsd::kInteger)},
      {Term::Literal("b"), Term::Literal("a"), Term::LangLiteral("42", "en")},
  };
  const std::vector<Term> dates = {
      Term::TypedLiteral("2021-01-01T00:00:00Z", xsd::kDateTime),
      Term::TypedLiteral("2020-05-01", xsd::kDate),
      Term::TypedLiteral("19-x", xsd::kDate),
      Term::TypedLiteral("2020-xx-31", xsd::kDate),
      Term::Literal("2019-07-08"),
      Term::Integer(2020),
  };
  rdf::Graph g;
  uint64_t state = 7;
  auto next = [&](uint64_t n) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % n;
  };
  for (int i = 0; i < 400; ++i) {
    const Term item = Term::Iri("urn:i" + std::to_string(i));
    const size_t group = next(pools.size() + 1);  // the last group: mixed
    g.Add(item, Term::Iri("urn:g"), Term::Integer(static_cast<int64_t>(group)));
    for (uint64_t k = next(3); k > 0; --k) {  // 0, 1 or 2 values
      const auto& pool = pools[group < pools.size() ? group
                                                    : next(pools.size())];
      g.Add(item, Term::Iri("urn:v"), pool[next(pool.size())]);
    }
    if (next(4) != 0) {
      g.Add(item, Term::Iri("urn:d"), dates[next(dates.size())]);
    }
  }
  auto tsv = [&](const std::string& q) {
    auto res = ExecuteQueryString(&g, q);
    EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nquery: " << q;
    return res.ok() ? res.value().ToTsv() : std::string();
  };
  auto aggregates = [&](const std::string& v) {
    return "SELECT ?g (SUM(" + v + ") AS ?s) (AVG(" + v + ") AS ?a) (MIN(" +
           v + ") AS ?mn) (MAX(" + v + ") AS ?mx) ((SUM(" + v +
           ") + 1) AS ?s1) WHERE { ?i <urn:g> ?g . OPTIONAL { ?i <urn:v> ?v } }"
           " GROUP BY ?g ORDER BY ?g";
  };
  const std::string folded = tsv(aggregates("?v"));
  ASSERT_FALSE(folded.empty());
  EXPECT_EQ(folded, tsv(aggregates("COALESCE(?v)")));

  auto by_date = [&](const std::string& d) {
    return "SELECT (YEAR(" + d + ") AS ?y) (MONTH(" + d + ") AS ?m) (DAY(" +
           d + ") AS ?dd) (COUNT(*) AS ?n) WHERE { ?i <urn:g> ?g . OPTIONAL { "
           "?i <urn:d> ?d } } GROUP BY YEAR(" + d + ") MONTH(" + d +
           ") DAY(" + d + ")";
  };
  const std::string years = tsv(by_date("?d"));
  ASSERT_FALSE(years.empty());
  EXPECT_EQ(years, tsv(by_date("COALESCE(?d)")));
  EXPECT_NE(years.find("\"2021\"^^"), std::string::npos);
  EXPECT_NE(years.find("\"2019\"^^"), std::string::npos);
}

// An integer SUM that leaves int64 is the double sum (it used to wrap).
TEST(ColumnFoldTest, SumLeavingInt64IsADouble) {
  namespace xsd = rdf::xsd;
  using rdf::Term;
  rdf::Graph g;
  const int64_t values[] = {INT64_MAX, 1, -2};
  for (int i = 0; i < 3; ++i) {
    g.Add(Term::Iri("urn:i" + std::to_string(i)), Term::Iri("urn:v"),
          Term::Integer(values[i]));
  }
  for (const char* v : {"?v", "COALESCE(?v)"}) {
    auto res = ExecuteQueryString(
        &g, std::string("SELECT (SUM(") + v + ") AS ?s) (MIN(" + v +
                ") AS ?mn) WHERE { ?i <urn:v> ?v }");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res.value().at(0, 0),
              Term::Double(static_cast<double>(INT64_MAX) + 1 - 2))
        << v;
    EXPECT_EQ(res.value().at(0, 1), Term::Integer(-2)) << v;
  }
}

}  // namespace
}  // namespace rdfa::sparql
