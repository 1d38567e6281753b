// The `explore` workload: one closed-loop analyst replaying seeded scripted
// sessions of the paper's interactive loop in-process (facet clicks ->
// transition markers -> G/Sigma -> Answer Frame -> nested reload).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "analytics/session.h"
#include "bench.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "workload/products.h"

namespace perfbench {

namespace {

using rdfa::Status;
using rdfa::analytics::AnalyticsSession;
using rdfa::analytics::AnswerFrame;
using rdfa::analytics::GroupingSpec;
using rdfa::analytics::MeasureSpec;
using rdfa::fs::PropRef;
using rdfa::hifun::AggOp;

const std::string kEx = rdfa::workload::kExampleNs;

struct Tally {
  Clock::time_point start = Clock::now();
  std::vector<double> done_at_ms;  ///< loop time minus check time so far
  std::vector<double> facet_ms;
  std::vector<double> answer_ms;
  uint64_t actions = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  double check_ms = 0;  ///< answer checks, excluded from the action rate

  void Done() {
    ++actions;
    done_at_ms.push_back(MsSince(start) - check_ms);
  }
  /// Every started action either completes (Done) or fails once and ends
  /// its session, so this counts each attempt once, as the other workloads
  /// count every request.
  uint64_t attempted() const { return actions + failed; }
};

std::vector<PropRef> Path(std::initializer_list<const char*> props) {
  std::vector<PropRef> out;
  for (const char* p : props) out.push_back({kEx + p, false});
  return out;
}

size_t Pick(std::mt19937_64& rng, size_t n) {
  return static_cast<size_t>(rng() % std::max<size_t>(n, 1));
}

/// A seeded Weyl sequence in [0, 1): the seed sets where it starts, and
/// within every run its points spread evenly, so clicked values and range
/// bounds cover the same spread of selectivities in every run.
double Spread(double offset, uint64_t index, double salt) {
  double x = offset + salt + static_cast<double>(index) * 0.6180339887498949;
  return x - std::floor(x);
}

/// G/Sigma Execute: the timed answer, its layer split when traced, and the
/// check against the reference HIFUN evaluator (untimed).
std::optional<AnswerFrame> Execute(rdfa::rdf::Graph* graph,
                                   AnalyticsSession* s, size_t n_groups,
                                   LayerClock* layers, Tally* t) {
  if (layers != nullptr) {
    // Layer split of Execute, timed around the same public calls it makes.
    auto sparql = Timed(layers, "translator.build_sparql_ms",
                        [&] { return s->BuildSparql(); });
    if (sparql.ok()) {
      auto parsed = Timed(layers, "sparql.parse_ms", [&] {
        return rdfa::sparql::ParseQuery(sparql.value());
      });
      if (parsed.ok()) {
        rdfa::sparql::Executor exec(graph);
        Timed(layers, "sparql.plan_ms",
              [&] { return exec.ExplainJson(parsed.value()); });
        Timed(layers, "sparql.exec_ms",
              [&] { return exec.Execute(parsed.value()); });
      }
    }
  }
  auto a0 = Clock::now();
  auto af = s->Execute();
  double answer_ms = MsSince(a0);
  if (!af.ok()) {
    ++t->failed;
    std::fprintf(stderr, "explore: %s\n", af.status().ToString().c_str());
    return std::nullopt;
  }
  t->answer_ms.push_back(answer_ms);
  t->Done();
  if (layers != nullptr) {
    const rdfa::sparql::ExecStats& st = s->last_exec_stats();
    layers->AddMs("analytics.execute_ms", answer_ms);
    // AnalyticsSession::Execute minus the Executor::Execute it ran (the
    // program-reported total of the same call).
    layers->AddMs("analytics.answer_frame_ms", answer_ms - st.total_ms);
    layers->AddMs("sparql.bgp_ms", st.bgp_ms);
    layers->AddMs("sparql.group_agg_ms", st.group_agg_ms);
    layers->AddMs("sparql.index_build_ms", st.index_build_ms);
    double scanned = 0;
    for (size_t r : st.rows_scanned) scanned += static_cast<double>(r);
    layers->AddCount("sparql.rows_scanned", scanned);
    layers->AddCount("sparql.rows_out",
                     static_cast<double>(af.value().table().num_rows()));
  }
  auto c0 = Clock::now();
  auto direct = s->ExecuteDirect();
  if (!direct.ok() ||
      !SameAnswer(CanonicalAnswer(af.value().table(), n_groups),
                  CanonicalAnswer(direct.value().table(), n_groups))) {
    ++t->wrong;
    std::fprintf(stderr, "explore: Answer Frame differs from ExecuteDirect\n");
  }
  t->check_ms += MsSince(c0);
  return std::move(af).value();
}

/// One scripted session: class click, path expansion and value click, range
/// click, Sigma and G + Execute with a drill-down, Answer Frame reload with
/// nested facets and a range on the aggregate column, and Back. `ext_check`
/// replays the clicks on a SPARQL-only session and compares extension sizes.
///
/// The script's shape (which path, range kind, groupings and how many
/// aggregate ops) cycles with `index`, so every seed runs the same mix of
/// action kinds; the seed picks the clicked values, bounds and ops.
void Session(rdfa::rdf::Graph* graph, std::mt19937_64& rng, double offset,
             uint64_t index, bool ext_check, LayerClock* layers, Tally* t) {
  AnalyticsSession s(graph);
  std::optional<rdfa::fs::Session> ref;
  if (ext_check) ref.emplace(graph, rdfa::fs::EvalMode::kSparqlOnly);

  // A navigation action: the click, then the new state's transition markers.
  auto navigate = [&](AnalyticsSession& on, auto&& click, auto&& ref_click) {
    auto t0 = Clock::now();
    Status st = Timed(layers, "fs.transition_ms", click);
    if (!st.ok()) {
      ++t->failed;
      std::fprintf(stderr, "explore: %s\n", st.ToString().c_str());
      return false;
    }
    Timed(layers, "fs.class_facets_ms", [&] { return on.fs().ClassFacets(); });
    auto props = Timed(layers, "fs.property_facets_ms",
                       [&] { return on.fs().PropertyFacets(); });
    t->facet_ms.push_back(MsSince(t0));
    t->Done();
    if (layers != nullptr) {
      size_t values = 0;
      for (const auto& f : props) values += f.values.size();
      layers->AddCount("fs.ext_size",
                       static_cast<double>(on.fs().current().ext.size()));
      layers->AddCount("fs.facet_values", static_cast<double>(values));
    }
    if (ref.has_value() && &on == &s) {
      auto c0 = Clock::now();
      Status rst = ref_click();
      const size_t want = s.fs().current().ext.size();
      if (!rst.ok() || ref->current().ext.size() != want) {
        ++t->wrong;
        std::fprintf(stderr,
                     "explore: SPARQL-only extension differs (%zu vs %zu)\n",
                     ref->current().ext.size(), want);
      }
      t->check_ms += MsSince(c0);
    }
    return true;
  };
  auto none = [] { return Status::OK(); };

  const std::string laptop = kEx + "Laptop";
  if (!navigate(s, [&] { return s.fs().ClickClass(laptop); },
                [&] { return ref->ClickClass(laptop); })) {
    return;
  }

  // Path expansion, then a click on one of its values.
  const std::vector<std::vector<PropRef>> paths = {
      Path({"manufacturer", "origin"}), Path({"hardDrive", "manufacturer"}),
      Path({"manufacturer", "origin", "locatedAt"})};
  const std::vector<PropRef>& path = paths[index % paths.size()];
  auto t0 = Clock::now();
  rdfa::fs::PropertyFacet pf = Timed(layers, "fs.path_facet_ms",
                                     [&] { return s.fs().ExpandPath(path); });
  t->facet_ms.push_back(MsSince(t0));
  t->Done();
  if (pf.values.empty()) {
    ++t->failed;
    return;
  }
  // The value at an evenly spread rank of the facet's count order.
  std::sort(pf.values.begin(), pf.values.end(),
            [](const auto& a, const auto& b) {
              return a.count != b.count ? a.count > b.count : a.value < b.value;
            });
  auto rank = static_cast<size_t>(Spread(offset, index, 0.0) *
                                  static_cast<double>(pf.values.size()));
  rdfa::rdf::Term value = graph->terms().Get(pf.values[rank].value);
  if (!navigate(s, [&] { return s.fs().ClickValue(path, value); },
                [&] { return ref->ClickValue(path, value); })) {
    return;
  }

  // A range on price or USB ports, wide enough to keep most of the focus.
  std::vector<PropRef> range_path;
  double lo = 0, hi = 0;
  if ((index / 3) % 2 == 0) {
    range_path = Path({"price"});
    lo = 300 + std::floor(Spread(offset, index, 0.3) * 800);
    hi = lo + 1200 + std::floor(Spread(offset, index, 0.7) * 800);
  } else {
    range_path = Path({"USBPorts"});
    lo = 1 + std::floor(Spread(offset, index, 0.3) * 2);
    hi = lo + 2 + std::floor(Spread(offset, index, 0.7) * 2);
  }
  if (!navigate(s, [&] { return s.fs().ClickRange(range_path, lo, hi); },
                [&] { return ref->ClickRange(range_path, lo, hi); })) {
    return;
  }

  // Sigma: price with one to three ops, or COUNT.
  MeasureSpec m;
  const size_t n_ops = (index / 6) % 4;  // 0 = COUNT of the items
  if (n_ops == 0) {
    m.ops = {AggOp::kCount};
  } else {
    m.path = {kEx + "price"};
    const AggOp ops[] = {AggOp::kAvg, AggOp::kSum, AggOp::kMin, AggOp::kMax};
    size_t first = Pick(rng, 4), count = n_ops;
    for (size_t i = 0; i < count; ++i) m.ops.push_back(ops[(first + i) % 4]);
  }
  if (!s.ClickAggregate(m).ok()) {
    ++t->failed;
    return;
  }

  // G, then Execute; a drill-down adds a second grouping and executes again.
  const std::vector<GroupingSpec> groupings = {
      {{kEx + "manufacturer"}, ""},
      {{kEx + "manufacturer", kEx + "origin"}, ""},
      {{kEx + "releaseDate"}, "YEAR"},
      {{kEx + "hardDrive", kEx + "manufacturer"}, ""}};
  // The 12 ordered pairs of distinct groupings, in turn.
  const size_t g1 = index % groupings.size();
  const size_t g2 = (g1 + 1 + (index / groupings.size()) % 3) %
                    groupings.size();
  std::optional<AnswerFrame> af;
  size_t n_groups = 0;
  for (size_t g : {g1, g2}) {
    if (!s.ClickGroupBy(groupings[g]).ok()) {
      ++t->failed;
      return;
    }
    ++n_groups;
    af = Execute(graph, &s, n_groups, layers, t);
    if (!af.has_value()) return;
  }

  // Reload the Answer Frame as a dataset and keep exploring it.
  rdfa::rdf::Graph af_graph;
  std::unique_ptr<AnalyticsSession> nested;
  auto r0 = Clock::now();
  auto reloaded = Timed(layers, "analytics.reload_ms",
                        [&] { return s.ExploreAnswer(&af_graph); });
  if (!reloaded.ok()) {
    ++t->failed;
    return;
  }
  nested = std::move(reloaded).value();
  if (layers != nullptr) {
    layers->AddCount("analytics.reload_triples",
                     static_cast<double>(af_graph.size()));
  }
  nested->fs().ClassFacets();
  nested->fs().PropertyFacets();
  t->facet_ms.push_back(MsSince(r0));
  t->Done();

  // Range on the first aggregate column at its median value.
  const rdfa::sparql::ResultTable& table = af->table();
  std::vector<double> aggs;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto v = rdfa::sparql::Value::FromTerm(table.at(r, n_groups)).AsNumeric();
    if (v.has_value()) aggs.push_back(*v);
  }
  std::vector<PropRef> agg_col = {{AnswerFrame::ColumnIri("agg1"), false}};
  double threshold = Median(aggs);
  if (!navigate(*nested,
                [&] {
                  return nested->fs().ClickRange(agg_col, threshold,
                                                 std::nullopt);
                },
                none)) {
    return;
  }
  if (!navigate(*nested, [&] { return nested->fs().Back(); }, none)) return;
  navigate(s, [&] { return s.fs().Back(); }, [&] { return ref->Back(); });
}

/// Runs sessions until `seconds` of loop time have passed.
Tally Loop(rdfa::rdf::Graph* graph, uint64_t seed, double seconds,
           LayerClock* layers) {
  Tally t;
  std::mt19937_64 rng(seed);
  const double offset = std::uniform_real_distribution<double>(0, 1)(rng);
  auto t0 = Clock::now();
  for (uint64_t i = 0; MsSince(t0) < seconds * 1000; ++i) {
    Session(graph, rng, offset, i, /*ext_check=*/i % 8 == 0, layers, &t);
  }
  return t;
}

double Rate(const Tally& t, double wall_ms) {
  return WindowRate(t.done_at_ms, wall_ms - t.check_ms);
}

}  // namespace

void ProbeExplore(Store* store, uint64_t seed, LayerClock* layers,
                  uint64_t* wrong) {
  auto pin = store->mvcc->Snapshot();
  std::mt19937_64 rng(seed);
  Tally t;
  for (uint64_t i = 0; i < 3; ++i) {
    Session(pin.graph.get(), rng, 0.5, i, i == 0, layers, &t);
  }
  *wrong += t.wrong + t.failed;
}

Outcome RunExplore(const RunOptions& opt) {
  Outcome out;
  LayerClock layers;
  LayerClock* traced = opt.trace ? &layers : nullptr;
  StoreSpec spec;
  spec.laptops = 10'000 / opt.shrink;
  // Ten times the default companies: with 20, the seed's assignment of
  // companies to 12 countries sets the share of laptops behind each
  // manufacturer/origin value, and with it the cost of every click on it,
  // so runs on different seeds measured different workloads. Shrunken
  // self-test stores keep the default, so that no click empties the focus.
  spec.companies = std::max<size_t>(20, 200 / opt.shrink);
  spec.seed = opt.seed;
  spec.wal_path = opt.work_dir + "/explore.wal";
  if (opt.trace) spec.commit_tracer = std::make_shared<rdfa::Tracer>();
  std::vector<double> setups;
  auto store = BuildStoreMedian(spec, opt.setup_reps, traced, &setups);
  if (store == nullptr) std::exit(1);
  auto pin = store->mvcc->Snapshot();
  std::printf("explore: %zu laptops, %zu companies, %zu triples, "
              "1 analyst thread\n",
              spec.laptops, spec.companies, store->triples);

  const uint64_t loop_seed = opt.seed * 0x9E3779B97F4A7C15ull + 1;
  Tally t;
  double wall_ms = 0;
  if (!opt.trace) {
    auto t0 = Clock::now();
    t = Loop(pin.graph.get(), loop_seed, opt.seconds, nullptr);
    wall_ms = MsSince(t0);
    out.report.Add("setup_s", store->setup_s, "s");
    out.report.Add("ops_per_s", Rate(t, wall_ms), "1/s");
    out.report.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.report.AddPercentile("primary_p50_ms", t.facet_ms, 0.50, "ms");
    out.report.AddPercentile("primary_tail_ms", t.facet_ms, 0.90, "ms");
    out.report.AddPercentile("secondary_p50_ms", t.answer_ms, 0.50, "ms");
    out.report.AddPercentile("secondary_tail_ms", t.answer_ms, 0.90, "ms");
    out.report.Note("primary = facet (navigation action -> markers), "
                    "tail = p90");
    out.report.Note("secondary = answer (Execute -> Answer Frame), tail = p90");
  } else {
    // Half the time untraced, half traced: the rate ratio is the overhead.
    auto t0 = Clock::now();
    Tally plain = Loop(pin.graph.get(), loop_seed, opt.seconds / 2, nullptr);
    double plain_rate = Rate(plain, MsSince(t0));
    t0 = Clock::now();
    t = Loop(pin.graph.get(), loop_seed, opt.seconds / 2, &layers);
    wall_ms = MsSince(t0);
    double traced_ms = wall_ms - t.check_ms;
    double layer_ms = layers.TotalMs(
        {"fs.transition_ms", "fs.class_facets_ms", "fs.property_facets_ms",
         "fs.path_facet_ms", "translator.build_sparql_ms", "sparql.parse_ms",
         "sparql.plan_ms", "sparql.exec_ms", "analytics.execute_ms",
         "analytics.reload_ms"});
    layers.AddCount("run.unaccounted_share", 1.0 - layer_ms / traced_ms);
    layers.AddCount("run.trace_overhead_pct",
                    (plain_rate / Rate(t, wall_ms) - 1.0) * 100.0);
    t.wrong += plain.wrong;
    t.failed += plain.failed;
    t.actions += plain.actions;
    FinishTraced(store.get(), AnalyticCatalog(nullptr), opt.seed, &layers,
                 &out);
  }
  out.attempted = t.attempted();
  out.wrong += t.wrong;
  out.failed = t.failed + t.wrong;
  return out;
}

}  // namespace perfbench
