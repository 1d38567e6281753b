// Soundness of the HIFUN->SPARQL translation (dissertation Proposition 2):
// for a corpus of HIFUN queries, the translated SPARQL query evaluated by
// the engine must return the same answer as the direct HIFUN evaluator.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "hifun/evaluator.h"
#include "hifun/hifun_parser.h"
#include "sparql/executor.h"
#include "sparql/value.h"
#include "translator/translator.h"
#include "viz/table_render.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa {
namespace {

const std::string kInv = workload::kInvoiceNs;
const std::string kEx = workload::kExampleNs;

/// Canonicalizes a result table into group-key -> list of aggregate values,
/// independent of row order and column naming.
std::map<std::string, std::vector<double>> Canonical(
    const sparql::ResultTable& t, size_t n_group_cols) {
  std::map<std::string, std::vector<double>> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < n_group_cols; ++c) {
      key += viz::DisplayTerm(t.at(r, c)) + "|";
    }
    std::vector<double> aggs;
    for (size_t c = n_group_cols; c < t.num_columns(); ++c) {
      auto v = sparql::Value::FromTerm(t.at(r, c)).AsNumeric();
      aggs.push_back(v.value_or(std::nan("")));
    }
    out[key] = aggs;
  }
  return out;
}

struct EquivalenceCase {
  std::string name;
  std::string hifun;
  std::string ns;
  size_t group_cols;
};

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EquivalenceTest, TranslatedSparqlMatchesDirectEvaluation) {
  const EquivalenceCase& tc = GetParam();
  rdf::Graph g;
  if (tc.ns == kInv) {
    workload::BuildInvoicesExample(&g);
    workload::InvoicesOptions opt;
    opt.invoices = 300;
    opt.branches = 5;
    opt.products = 20;
    opt.brands = 4;
    workload::GenerateInvoices(&g, opt);
  } else {
    workload::BuildRunningExample(&g);
    workload::ProductKgOptions opt;
    opt.laptops = 200;
    workload::GenerateProductKg(&g, opt);
  }

  rdf::PrefixMap prefixes;
  auto parsed = hifun::ParseHifun(tc.hifun, prefixes, tc.ns);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const hifun::Query& q = parsed.value();

  // Direct evaluation (reference semantics).
  hifun::Evaluator eval(g);
  auto direct = eval.Evaluate(q);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  // Translated SPARQL evaluation.
  auto sparql_text = translator::TranslateToSparql(q);
  ASSERT_TRUE(sparql_text.ok()) << sparql_text.status().ToString();
  auto via_sparql = sparql::ExecuteQueryString(&g, sparql_text.value());
  ASSERT_TRUE(via_sparql.ok())
      << via_sparql.status().ToString() << "\n" << sparql_text.value();

  auto a = Canonical(direct.value(), tc.group_cols);
  auto b = Canonical(via_sparql.value(), tc.group_cols);
  ASSERT_EQ(a.size(), b.size())
      << "group counts differ\nsparql:\n" << sparql_text.value();
  for (const auto& [key, aggs] : a) {
    ASSERT_TRUE(b.count(key)) << "missing group " << key;
    ASSERT_EQ(aggs.size(), b[key].size());
    for (size_t i = 0; i < aggs.size(); ++i) {
      EXPECT_NEAR(aggs[i], b[key][i], 1e-6)
          << "group " << key << " agg " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EquivalenceTest,
    ::testing::Values(
        EquivalenceCase{"simple_sum",
                        "(takesPlaceAt, inQuantity, SUM) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"count_identity",
                        "(takesPlaceAt, ID, COUNT) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"avg_min_max",
                        "(takesPlaceAt, inQuantity, AVG+MIN+MAX) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"uri_restriction",
                        "(takesPlaceAt / = b1, inQuantity, SUM) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{
            "literal_restriction",
            "(takesPlaceAt, inQuantity / >= 100, SUM) over Invoice",
            workload::kInvoiceNs, 1},
        EquivalenceCase{"having",
                        "(takesPlaceAt, inQuantity, SUM / > 600) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"composition",
                        "(brand o delivers, inQuantity, SUM) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"derived_month",
                        "(MONTH(hasDate), inQuantity, SUM) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{
            "pairing",
            "((takesPlaceAt x delivers), inQuantity, SUM) over Invoice",
            workload::kInvoiceNs, 2},
        EquivalenceCase{
            "pairing_over_composition",
            "((takesPlaceAt x brand o delivers), inQuantity, SUM) over Invoice",
            workload::kInvoiceNs, 2},
        EquivalenceCase{
            "restriction_path",
            "(takesPlaceAt, inQuantity / delivers.brand = BrandA, SUM) over "
            "Invoice",
            workload::kInvoiceNs, 1},
        EquivalenceCase{"global_avg", "(eps, inQuantity, AVG) over Invoice",
                        workload::kInvoiceNs, 0},
        EquivalenceCase{
            "paper_425_full",
            "((takesPlaceAt x brand o delivers) / MONTH(hasDate) = 1, "
            "inQuantity / >= 2, SUM / > 150) over Invoice",
            workload::kInvoiceNs, 2},
        EquivalenceCase{
            "derived_restriction_year",
            "(takesPlaceAt, inQuantity / YEAR(hasDate) = 2021, SUM) over "
            "Invoice",
            workload::kInvoiceNs, 1},
        EquivalenceCase{
            "products_avg_price_by_manufacturer",
            "(manufacturer, price, AVG) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "products_origin_path",
            "(origin o manufacturer, price, AVG+COUNT) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "products_usb_restriction",
            "(manufacturer, price / USBPorts >= 2, AVG) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "products_year_group",
            "(YEAR(releaseDate), price, MAX) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "derived_in_composition",
            "(STR(origin) o manufacturer, price, AVG+COUNT) over Laptop",
            workload::kExampleNs, 1}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace rdfa
