// Reproduces the §4.2 cost story: HIFUN->SPARQL translation is a
// string-building pass (microseconds), so the interaction model adds
// negligible overhead over raw SPARQL; evaluation cost dominates and the
// two evaluation routes (direct HIFUN vs translated SPARQL) stay within a
// small constant factor. Proposition 2 gives identical answers: before
// timing anything, the binary compares the two routes' answers on every
// (scale, query) it times and exits 1 on a mismatch.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "hifun/evaluator.h"
#include "hifun/hifun_parser.h"
#include "rdf/namespaces.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/value.h"
#include "translator/translator.h"
#include "workload/invoices.h"

namespace {

const std::string kInv = rdfa::workload::kInvoiceNs;

const char* const kQueries[] = {
    "(takesPlaceAt, inQuantity, SUM) over Invoice",
    "(brand o delivers, inQuantity, SUM) over Invoice",
    "((takesPlaceAt x MONTH(hasDate)), inQuantity, SUM+AVG) over Invoice",
    "(takesPlaceAt / = branch0, inQuantity / >= 100, SUM / > 1000) over "
    "Invoice",
};

rdfa::hifun::Query ParseAt(size_t i) {
  rdfa::rdf::PrefixMap prefixes;
  auto q = rdfa::hifun::ParseHifun(kQueries[i], prefixes, kInv);
  return q.value();
}

rdfa::rdf::Graph* SharedGraph(size_t invoices) {
  static std::map<size_t, rdfa::rdf::Graph>* graphs =
      new std::map<size_t, rdfa::rdf::Graph>();
  auto it = graphs->find(invoices);
  if (it == graphs->end()) {
    rdfa::rdf::Graph g;
    rdfa::workload::InvoicesOptions opt;
    opt.invoices = invoices;
    rdfa::workload::GenerateInvoices(&g, opt);
    it = graphs->emplace(invoices, std::move(g)).first;
  }
  return &it->second;
}

void BM_HifunParse(benchmark::State& state) {
  rdfa::rdf::PrefixMap prefixes;
  for (auto _ : state) {
    for (const char* q : kQueries) {
      benchmark::DoNotOptimize(rdfa::hifun::ParseHifun(q, prefixes, kInv));
    }
  }
}
BENCHMARK(BM_HifunParse);

void BM_Translate(benchmark::State& state) {
  std::vector<rdfa::hifun::Query> parsed;
  for (size_t i = 0; i < 4; ++i) parsed.push_back(ParseAt(i));
  for (auto _ : state) {
    for (const auto& q : parsed) {
      benchmark::DoNotOptimize(rdfa::translator::TranslateToSparql(q));
    }
  }
  state.SetLabel("Algorithms 1-4, 4 queries per iteration");
}
BENCHMARK(BM_Translate);

void BM_SparqlParse(benchmark::State& state) {
  std::vector<std::string> texts;
  for (size_t i = 0; i < 4; ++i) {
    texts.push_back(
        rdfa::translator::TranslateToSparql(ParseAt(i)).value());
  }
  for (auto _ : state) {
    for (const std::string& t : texts) {
      benchmark::DoNotOptimize(rdfa::sparql::ParseQuery(t));
    }
  }
}
BENCHMARK(BM_SparqlParse);

void BM_EvalTranslatedSparql(benchmark::State& state) {
  rdfa::rdf::Graph* g = SharedGraph(static_cast<size_t>(state.range(0)));
  std::string text =
      rdfa::translator::TranslateToSparql(ParseAt(static_cast<size_t>(
                                              state.range(1))))
          .value();
  auto parsed = rdfa::sparql::ParseQuery(text);
  rdfa::sparql::Executor exec(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Select(parsed.value().select));
  }
}
BENCHMARK(BM_EvalTranslatedSparql)
    ->Args({5000, 0})
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({20000, 0})
    ->Args({20000, 2})
    ->Unit(benchmark::kMillisecond);

void BM_EvalDirectHifun(benchmark::State& state) {
  rdfa::rdf::Graph* g = SharedGraph(static_cast<size_t>(state.range(0)));
  rdfa::hifun::Query q = ParseAt(static_cast<size_t>(state.range(1)));
  rdfa::hifun::Evaluator eval(*g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate(q));
  }
}
BENCHMARK(BM_EvalDirectHifun)
    ->Args({5000, 0})
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({20000, 0})
    ->Args({20000, 2})
    ->Unit(benchmark::kMillisecond);

/// An answer as group key (N-Triples, "|"-joined) -> aggregate values, so
/// row order and column names do not matter.
std::map<std::string, std::vector<double>> Canonical(
    const rdfa::sparql::ResultTable& t, size_t group_cols) {
  std::map<std::string, std::vector<double>> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < group_cols; ++c) {
      key += t.at(r, c).ToNTriples() + "|";
    }
    std::vector<double>& aggs = out[key];
    for (size_t c = group_cols; c < t.num_columns(); ++c) {
      aggs.push_back(rdfa::sparql::Value::FromTerm(t.at(r, c))
                         .AsNumeric()
                         .value_or(std::nan("")));
    }
  }
  return out;
}

/// Whether both routes answer query `i` alike over `invoices` invoices.
bool AnswersAgree(size_t invoices, size_t i) {
  rdfa::rdf::Graph* g = SharedGraph(invoices);
  const rdfa::hifun::Query q = ParseAt(i);
  auto direct = rdfa::hifun::Evaluator(*g).Evaluate(q);
  auto text = rdfa::translator::TranslateToSparql(q);
  auto translated = text.ok()
                        ? rdfa::sparql::ExecuteQueryString(g, text.value())
                        : rdfa::Result<rdfa::sparql::ResultTable>(
                              text.status());
  if (!direct.ok() || !translated.ok()) {
    const rdfa::Status& st = !direct.ok() ? direct.status()
                                          : translated.status();
    std::printf("answers DIFFER: %zu invoices, query %zu: %s\n", invoices, i,
                st.ToString().c_str());
    return false;
  }
  const size_t group_cols = direct.value().num_columns() - q.ops.size();
  auto a = Canonical(direct.value(), group_cols);
  auto b = Canonical(translated.value(), group_cols);
  bool agree = a.size() == b.size();
  for (auto ia = a.begin(), ib = b.begin(); agree && ia != a.end();
       ++ia, ++ib) {
    agree = ia->first == ib->first && ia->second.size() == ib->second.size();
    for (size_t k = 0; agree && k < ia->second.size(); ++k) {
      const double x = ia->second[k], y = ib->second[k];
      agree = std::fabs(x - y) <= 1e-9 * std::max(1.0, std::fabs(x));
    }
  }
  std::printf("answers %s: %zu invoices, query %zu, %zu groups\n",
              agree ? "agree" : "DIFFER", invoices, i, a.size());
  return agree;
}

}  // namespace

int main(int argc, char** argv) {
  bool agree = true;
  for (size_t invoices : {5000, 20000}) {
    for (size_t i = 0; i < std::size(kQueries); ++i) {
      agree = AnswersAgree(invoices, i) && agree;
    }
  }
  if (!agree) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
