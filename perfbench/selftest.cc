// Self-tests of the benchmark's own machinery at tiny scale: percentile
// edge cases, and that the answer checks catch a corrupted Answer Frame and
// a corrupted response body. (That every metric is emitted with its unit is
// checked by `run.py --selftest` against BENCHMARK.json.)

#include <cstdio>
#include <string>

#include "analytics/session.h"
#include "bench.h"
#include "workload/products.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

void PercentileCases() {
  Expect(!NearestRank({}, 0.5).ok() && NearestRank({}, 0.5).n == 0,
         "empty sample: no percentile, n=0");
  Percentile one = NearestRank({7.0}, 0.5);
  Expect(!one.ok() && one.n == 1 && one.beyond == 0,
         "one sample: not reported (nothing beyond it)");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  Percentile p50 = NearestRank(v, 0.5), p90 = NearestRank(v, 0.9);
  Expect(p50.ok() && p50.value == 50 && p50.beyond == 50, "p50 of 1..100 = 50");
  Expect(p90.ok() && p90.value == 90 && p90.beyond == 10,
         "p90 of 1..100 = 90 with exactly 10 beyond");
  Expect(!NearestRank(v, 0.99).ok(), "p99 of 100 samples: too few beyond");
  v.pop_back();
  Expect(!NearestRank(v, 0.9).ok(), "p90 of 99 samples: 9 beyond, refused");
  std::vector<double> twenty(20, 1.0), nineteen(19, 1.0);
  Expect(NearestRank(twenty, 0.5).ok() && !NearestRank(nineteen, 0.5).ok(),
         "p50 needs 20 samples");
  Report r;
  r.AddPercentile("x_ms", nineteen, 0.5, "ms");
  Expect(!r.complete() && !r.Has("x_ms"),
         "report says why instead of printing a number");
}

void AnswerFrameCheck() {
  const std::string ex = rdfa::workload::kExampleNs;
  rdfa::rdf::Graph g;
  rdfa::workload::ProductKgOptions kg;
  kg.laptops = 200;
  rdfa::workload::GenerateProductKg(&g, kg);
  rdfa::rdf::MaterializeRdfsClosure(&g);
  rdfa::analytics::AnalyticsSession s(&g);
  Expect(s.fs().ClickClass(ex + "Laptop").ok(), "click Laptop");
  Expect(s.ClickGroupBy({{ex + "manufacturer"}, ""}).ok(), "group by maker");
  rdfa::analytics::MeasureSpec m;
  m.path = {ex + "price"};
  m.ops = {rdfa::hifun::AggOp::kAvg};
  Expect(s.ClickAggregate(m).ok(), "avg price");
  auto af = s.Execute();
  auto direct = s.ExecuteDirect();
  Expect(af.ok() && direct.ok(), "execute both ways");
  if (!af.ok() || !direct.ok()) return;
  const auto& table = af.value().table();
  auto ref = CanonicalAnswer(direct.value().table(), 1);
  Expect(SameAnswer(CanonicalAnswer(table, 1), ref),
         "correct Answer Frame matches ExecuteDirect");

  rdfa::sparql::ResultTable changed(table.columns());
  rdfa::sparql::ResultTable dropped(table.columns());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<rdfa::rdf::Term> row = table.row(r);
    if (r > 0) dropped.AddRow(row);
    if (r == 0) row[1] = rdfa::rdf::Term::Integer(123456789);
    changed.AddRow(row);
  }
  Expect(!SameAnswer(CanonicalAnswer(changed, 1), ref),
         "corrupted aggregate value is caught");
  Expect(!SameAnswer(CanonicalAnswer(dropped, 1), ref),
         "missing Answer Frame row is caught");
}

void BodyCheck() {
  StoreSpec spec;
  spec.laptops = 200;
  auto store = BuildStore(spec, nullptr);
  Expect(store != nullptr, "tiny store builds");
  if (store == nullptr) return;
  const std::vector<CatalogEntry> catalog = AnalyticCatalog(nullptr);
  const CatalogEntry& e = catalog.front();
  rdfa::endpoint::EndpointRequest req;
  req.query = e.query;
  auto pin = store->mvcc->Snapshot();
  auto ref = ReferenceBody(pin.graph.get(), e.query,
                           rdfa::endpoint::ResultFormat::kJson);
  Expect(ref.ok(), "reference body");
  if (!ref.ok()) return;
  auto miss = store->handler->Handle(req);
  auto hit = store->handler->Handle(req);
  Expect(miss.body == ref.value() && hit.body == ref.value() &&
             hit.detail.cache_hit,
         "served bodies (miss and cache hit) equal the uncached reference");
  std::string corrupted = hit.body;
  corrupted[corrupted.size() / 2] ^= 1;
  Expect(corrupted != ref.value() &&
             !(Digest::Of(corrupted) == Digest::Of(ref.value())),
         "one flipped byte in a body is caught, by bytes and by digest");
}

}  // namespace

int SelfTest() {
  PercentileCases();
  AnswerFrameCheck();
  BodyCheck();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
