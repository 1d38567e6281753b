// Reproduces the §6.4 efficiency discussion for the *interaction* side: the
// cost of computing transition markers (class facets with counts, property
// facets with value counts, path expansion) as the KG grows. The paper's
// claim: facet computation stays interactive because it touches only the
// current extension's neighborhood.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "fs/facets.h"
#include "fs/session.h"
#include "rdf/rdfs.h"
#include "workload/products.h"

namespace {

const std::string kEx = rdfa::workload::kExampleNs;

// The Laptop focus and a FacetComputer over it. The benches call the
// computer, not the Session: Session memoizes its facets per state, so after
// the first iteration it would only hand back a copy of the memo.
struct Fixture {
  rdfa::rdf::Graph graph;
  std::unique_ptr<rdfa::rdf::Vocab> vocab;
  std::unique_ptr<rdfa::rdf::SchemaView> schema;
  std::unique_ptr<rdfa::fs::FacetComputer> facets;
  rdfa::fs::Extension focus;
};

Fixture* SharedFixture(size_t laptops) {
  static std::map<size_t, Fixture>* fixtures = new std::map<size_t, Fixture>();
  auto it = fixtures->find(laptops);
  if (it == fixtures->end()) {
    it = fixtures->try_emplace(laptops).first;
    Fixture& f = it->second;
    rdfa::workload::ProductKgOptions opt;
    opt.laptops = laptops;
    opt.companies = laptops / 50 + 5;
    rdfa::workload::GenerateProductKg(&f.graph, opt);
    rdfa::rdf::MaterializeRdfsClosure(&f.graph);
    f.vocab = std::make_unique<rdfa::rdf::Vocab>(&f.graph);
    f.schema = std::make_unique<rdfa::rdf::SchemaView>(f.graph, *f.vocab);
    f.facets = std::make_unique<rdfa::fs::FacetComputer>(f.graph, *f.schema,
                                                         *f.vocab);
    rdfa::fs::Session s(&f.graph);
    (void)s.ClickClass(kEx + "Laptop");
    f.focus = s.current().ext;
  }
  return &it->second;
}

void BM_ClassFacets(benchmark::State& state) {
  Fixture* f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto facets = f->facets->ClassFacets(f->focus);
    benchmark::DoNotOptimize(facets.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassFacets)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

void BM_PropertyFacets(benchmark::State& state) {
  Fixture* f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto facets = f->facets->PropertyFacets(f->focus);
    benchmark::DoNotOptimize(facets.size());
  }
}
BENCHMARK(BM_PropertyFacets)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

void BM_PathExpansion(benchmark::State& state) {
  Fixture* f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto facet = f->facets->PathFacet(
        f->focus, {{kEx + "manufacturer"}, {kEx + "origin"}});
    benchmark::DoNotOptimize(facet.values.size());
  }
  state.SetLabel("Joins(Joins(E,manufacturer),origin) with counts");
}
BENCHMARK(BM_PathExpansion)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

void BM_PathExpansionHardDrive(benchmark::State& state) {
  Fixture* f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto facet = f->facets->PathFacet(
        f->focus, {{kEx + "hardDrive"}, {kEx + "manufacturer"}});
    benchmark::DoNotOptimize(facet.values.size());
  }
  state.SetLabel("Joins(Joins(E,hardDrive),manufacturer) with counts");
}
BENCHMARK(BM_PathExpansionHardDrive)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_ValueClickTransition(benchmark::State& state) {
  Fixture* f = SharedFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    rdfa::fs::Session s(&f->graph);
    (void)s.ClickClass(kEx + "Laptop");
    benchmark::DoNotOptimize(
        s.ClickValue({{kEx + "manufacturer"}, {kEx + "origin"}},
                     rdfa::rdf::Term::Iri(kEx + "country0")));
  }
  state.SetLabel("back-propagating path restriction (Eq. 5.1)");
}
BENCHMARK(BM_ValueClickTransition)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_RdfsClosure(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rdfa::rdf::Graph g;
    rdfa::workload::ProductKgOptions opt;
    opt.laptops = static_cast<size_t>(state.range(0));
    rdfa::workload::GenerateProductKg(&g, opt);
    state.ResumeTiming();
    benchmark::DoNotOptimize(rdfa::rdf::MaterializeRdfsClosure(&g));
  }
  state.SetLabel("one-off load-time cost");
}
BENCHMARK(BM_RdfsClosure)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

}  // namespace
