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
#include "sparql/parser.h"
#include "sparql/value.h"
#include "equivalence_corpus.h"
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

using test::EquivalenceCase;

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EquivalenceTest, TranslatedSparqlMatchesDirectEvaluation) {
  const EquivalenceCase& tc = GetParam();
  rdf::Graph g;
  test::BuildEquivalenceGraph(tc, &g);

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
  // The adaptive joins (star steps included) answer byte-identically to
  // the nested-loop oracle.
  auto parsed_sparql = sparql::ParseQuery(sparql_text.value());
  ASSERT_TRUE(parsed_sparql.ok());
  sparql::Executor nlj(&g);
  nlj.set_join_strategy(sparql::JoinStrategy::kNestedLoop);
  auto oracle = nlj.Execute(parsed_sparql.value());
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(via_sparql.value().ToTsv(), oracle.value().ToTsv())
      << sparql_text.value();

  auto a = Canonical(direct.value(), tc.group_cols);
  auto b = Canonical(via_sparql.value(), tc.group_cols);
  if (tc.year_hops) EXPECT_GT(a.size(), 1u) << "the hop reached nothing";
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
    ::testing::ValuesIn(test::EquivalenceCorpus()),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace rdfa
