#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/string_util.h"
#include "hifun/hifun_parser.h"
#include "rdf/rdfs.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/value.h"
#include "translator/translator.h"
#include "viz/table_render.h"
#include "workload/products.h"

namespace perfbench {

namespace ep = rdfa::endpoint;

// ---- percentiles -----------------------------------------------------------

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(p.n)));
  rank = std::clamp<size_t>(rank, 1, p.n);
  p.beyond = p.n - rank;
  p.value = samples[rank - 1];
  return p;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

// ---- the report ------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void Report::AddPercentile(const std::string& name,
                           const std::vector<double>& v, double q,
                           const std::string& unit) {
  Percentile p = NearestRank(v, q);
  if (p.ok()) {
    Add(name, p.value, unit);
    Note(name + " n=" + std::to_string(p.n) + " beyond=" +
         std::to_string(p.beyond));
    return;
  }
  missing_.push_back(name + ": not reported, n=" + std::to_string(p.n) +
                     " leaves " + std::to_string(p.beyond) +
                     " samples beyond the rank (needs " +
                     std::to_string(Percentile::kMinBeyond) + ")");
}

bool Report::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

void Report::PrintLines(FILE* out) const {
  for (const Entry& e : entries_) {
    std::fprintf(out, "%-32s %16.6f %s\n", e.name.c_str(), e.value,
                 e.unit.c_str());
  }
  for (const std::string& n : notes_) std::fprintf(out, "  %s\n", n.c_str());
  for (const std::string& m : missing_) std::fprintf(out, "%s\n", m.c_str());
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
    if (i > 0) s += ", ";
    s += "\"" + entries_[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double WindowRate(const std::vector<double>& done_at_ms, double wall_ms) {
  constexpr double kWindowMs = 1000;
  const auto windows = static_cast<size_t>(wall_ms / kWindowMs);
  if (windows < 2) {
    return static_cast<double>(done_at_ms.size()) / (wall_ms / 1000.0);
  }
  std::vector<double> counts(windows, 0);
  for (double t : done_at_ms) {
    auto w = static_cast<size_t>(t / kWindowMs);
    if (w < windows) counts[w] += 1;
  }
  // Interquartile mean: the middle half of the windows.
  std::sort(counts.begin(), counts.end());
  const size_t lo = windows / 4, hi = windows - windows / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += counts[i];
  return sum / static_cast<double>(hi - lo) * (1000.0 / kWindowMs);
}

// ---- per-layer clock -------------------------------------------------------

void LayerClock::AddMs(const std::string& name, double ms) {
  AddCount(name, ms);
}

void LayerClock::AddCount(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Acc& a = acc_[name];
  a.sum += value;
  ++a.n;
}

double LayerClock::Mean(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = acc_.find(name);
  if (it == acc_.end() || it->second.n == 0) return 0;
  return it->second.sum / static_cast<double>(it->second.n);
}

double LayerClock::Sum(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = acc_.find(name);
  return it == acc_.end() ? 0 : it->second.sum;
}

double LayerClock::TotalMs(const std::vector<std::string>& names) const {
  double total = 0;
  for (const std::string& n : names) total += Sum(n);
  return total;
}

std::vector<std::string> LayerClock::MergeAbsent(const LayerClock& other) {
  std::scoped_lock lock(mu_, other.mu_);
  std::vector<std::string> merged;
  for (const auto& [name, acc] : other.acc_) {
    if (acc_.count(name) == 0) {
      acc_[name] = acc;
      merged.push_back(name);
    }
  }
  return merged;
}

void FinishTraced(Store* store, const std::vector<CatalogEntry>& catalog,
                  uint64_t seed, LayerClock* layers, Outcome* out) {
  LayerClock probe;
  ProbeExplore(store, seed, &probe, &out->wrong);
  ProbeHttp(store, catalog, seed, &probe, &out->wrong);
  ProbeCommits(store, seed, &probe);
  std::string names;
  for (const std::string& n : layers->MergeAbsent(probe)) names += " " + n;
  out->report.Note("from side probes:" + names);
  EmitLayers(*layers, &out->report);
}

namespace {

enum class Agg { kMean, kSum };

struct LayerMetric {
  const char* name;
  const char* unit;
  Agg agg;
};

// Every per-layer metric of BENCHMARK.json, in its order.
const LayerMetric kLayerMetrics[] = {
    {"server.overhead_ms", "ms", Agg::kMean},
    {"server.bytes_out", "bytes", Agg::kMean},
    {"server.conns_accepted", "count", Agg::kSum},
    {"endpoint.handle_ms", "ms", Agg::kMean},
    {"endpoint.hit_ms", "ms", Agg::kMean},
    {"endpoint.answer_hit_ratio", "ratio", Agg::kMean},
    {"endpoint.plan_hit_ratio", "ratio", Agg::kMean},
    {"endpoint.answer_evictions", "count", Agg::kSum},
    {"endpoint.answer_invalidations", "count", Agg::kSum},
    {"endpoint.queued_requests", "count", Agg::kSum},
    {"sparql.parse_ms", "ms", Agg::kMean},
    {"sparql.plan_ms", "ms", Agg::kMean},
    {"sparql.exec_ms", "ms", Agg::kMean},
    {"sparql.bgp_ms", "ms", Agg::kMean},
    {"sparql.group_agg_ms", "ms", Agg::kMean},
    {"sparql.index_build_ms", "ms", Agg::kMean},
    {"sparql.rows_scanned", "count", Agg::kMean},
    {"sparql.rows_out", "count", Agg::kMean},
    {"sparql.serialize_ms", "ms", Agg::kMean},
    {"sparql.serialize_bytes", "bytes", Agg::kMean},
    {"fs.transition_ms", "ms", Agg::kMean},
    {"fs.class_facets_ms", "ms", Agg::kMean},
    {"fs.property_facets_ms", "ms", Agg::kMean},
    {"fs.path_facet_ms", "ms", Agg::kMean},
    {"fs.ext_size", "count", Agg::kMean},
    {"fs.facet_values", "count", Agg::kMean},
    {"translator.build_sparql_ms", "ms", Agg::kMean},
    {"analytics.answer_frame_ms", "ms", Agg::kMean},
    {"analytics.reload_ms", "ms", Agg::kMean},
    {"analytics.reload_triples", "count", Agg::kMean},
    {"rdf.generate_ms", "ms", Agg::kMean},
    {"rdf.closure_ms", "ms", Agg::kMean},
    {"rdf.freeze_ms", "ms", Agg::kMean},
    {"rdf.first_query_ms", "ms", Agg::kMean},
    {"rdf.snapshot_ms", "ms", Agg::kMean},
    {"rdf.commit_ms", "ms", Agg::kMean},
    {"rdf.wal_append_ms", "ms", Agg::kMean},
    {"rdf.commit_apply_ms", "ms", Agg::kMean},
    {"rdf.commit_publish_ms", "ms", Agg::kMean},
    {"rdf.wal_bytes_per_commit", "bytes", Agg::kMean},
    {"rdf.writer_lateness_ms", "ms", Agg::kMean},
    {"run.unaccounted_share", "ratio", Agg::kMean},
    {"run.trace_overhead_pct", "%", Agg::kMean},
};

}  // namespace

void EmitLayers(const LayerClock& layers, Report* report) {
  for (const LayerMetric& m : kLayerMetrics) {
    report->Add(m.name,
                m.agg == Agg::kSum ? layers.Sum(m.name) : layers.Mean(m.name),
                m.unit);
  }
}

// ---- the store -------------------------------------------------------------

Store::~Store() {
  if (server != nullptr) server->Stop();
}

namespace {

rdfa::Status ApplyUpdate(rdfa::rdf::Graph* g, const std::string& text) {
  auto applied = rdfa::sparql::ExecuteUpdateString(g, text);
  return applied.ok() ? rdfa::Status::OK() : applied.status();
}

/// Runs the first query of every analytic template once on `graph`.
double SuitePassMs(rdfa::rdf::Graph* graph,
                   const std::vector<CatalogEntry>& catalog) {
  auto t0 = Clock::now();
  std::string last_label;
  for (const CatalogEntry& e : catalog) {
    if (e.label == last_label) continue;
    last_label = e.label;
    auto body = ReferenceBody(graph, e.query, ep::ResultFormat::kJson);
    if (!body.ok()) {
      std::fprintf(stderr, "warm-up %s: %s\n", e.label.c_str(),
                   body.status().ToString().c_str());
    }
  }
  return MsSince(t0);
}

}  // namespace

std::unique_ptr<Store> BuildStore(const StoreSpec& spec, LayerClock* layers) {
  auto store = std::make_unique<Store>();
  store->laptops = spec.laptops;
  store->wal_path = spec.wal_path;
  store->commit_tracer = spec.commit_tracer;
  auto t0 = Clock::now();

  auto base = std::make_unique<rdfa::rdf::Graph>();
  rdfa::workload::ProductKgOptions kg;
  kg.laptops = spec.laptops;
  kg.companies = spec.companies;
  kg.seed = spec.seed;
  Timed(layers, "rdf.generate_ms",
        [&] { return rdfa::workload::GenerateProductKg(base.get(), kg); });
  Timed(layers, "rdf.closure_ms",
        [&] { return rdfa::rdf::MaterializeRdfsClosure(base.get()); });
  Timed(layers, "rdf.freeze_ms", [&] {
    base->Freeze();
    return 0;
  });
  store->triples = base->size();

  rdfa::rdf::MvccGraph::Options mopts;
  mopts.wal_path = spec.wal_path;
  mopts.update_fn = ApplyUpdate;
  mopts.tracer = spec.commit_tracer;
  auto opened = rdfa::rdf::MvccGraph::Open(std::move(mopts), std::move(base));
  if (!opened.ok()) {
    std::fprintf(stderr, "store: %s\n", opened.status().ToString().c_str());
    return nullptr;
  }
  store->mvcc = std::move(opened).value();

  store->endpoint = std::make_unique<ep::SimulatedEndpoint>(
      store->mvcc.get(), ep::LatencyProfile::Local(), /*enable_cache=*/true);
  rdfa::CacheOptions copts;
  copts.max_bytes = kCacheMb << 20;
  copts.max_entries = 4096;
  store->endpoint->set_cache_options(copts);
  ep::AdmissionOptions adm;
  adm.max_in_flight = 8;
  adm.max_queue = 64;
  adm.base_timeout_ms = 0;
  store->endpoint->set_admission(adm);
  store->endpoint->set_use_dp(true);
  store->handler =
      std::make_unique<ep::RequestHandler>(store->endpoint.get(), 30'000);

  // Warm-up: a cold and a warm pass of the analytic suite on the pinned
  // version; the difference is the first-touch (lazy index) cost.
  {
    std::vector<CatalogEntry> suite = AnalyticCatalog(nullptr);
    auto pin = store->mvcc->Snapshot();
    double cold = SuitePassMs(pin.graph.get(), suite);
    double warm = SuitePassMs(pin.graph.get(), suite);
    if (layers != nullptr) layers->AddMs("rdf.first_query_ms", cold - warm);
  }

  if (spec.server_workers > 0) {
    rdfa::server::HttpServerOptions sopts;
    sopts.port = 0;
    sopts.worker_threads = spec.server_workers;
    sopts.max_timeout_ms = 30'000;
    store->server = std::make_unique<rdfa::server::HttpServer>(
        store->handler.get(), sopts);
    rdfa::Status started = store->server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
      return nullptr;
    }
  }
  store->setup_s = MsSince(t0) / 1000.0;
  return store;
}

std::unique_ptr<Store> BuildStoreMedian(const StoreSpec& spec, int reps,
                                        LayerClock* layers,
                                        std::vector<double>* times_s) {
  std::unique_ptr<Store> store;
  for (int i = 0; i < reps; ++i) {
    store.reset();  // free the previous build before timing the next
    if (!spec.wal_path.empty()) std::remove(spec.wal_path.c_str());
    store = BuildStore(spec, layers);
    if (store == nullptr) return nullptr;
    times_s->push_back(store->setup_s);
  }
  store->setup_s = Median(*times_s);
  return store;
}

// ---- query mixes -----------------------------------------------------------

namespace {

constexpr char kPrefix[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

struct Template {
  const char* label;
  const char* hifun;  ///< "{}" is replaced by each constant
  std::vector<std::string> constants;
  bool touches_price;
};

std::vector<std::string> Range(int from, int to, int step) {
  std::vector<std::string> out;
  for (int v = from; v <= to; v += step) out.push_back(std::to_string(v));
  return out;
}

}  // namespace

std::vector<CatalogEntry> AnalyticCatalog(LayerClock* layers) {
  // The Q1-Q10 suite of bench_efficiency, each with a seeded-choice
  // restriction constant so that query texts vary.
  const std::vector<std::string> usb = Range(1, 5, 1);
  const std::vector<Template> templates = {
      {"Q1", "(manufacturer / = ex:company{}, ID, COUNT) over Laptop",
       Range(0, 19, 1), false},
      {"Q2", "(manufacturer, price / USBPorts >= {}, AVG) over Laptop", usb,
       true},
      {"Q3", "(origin o manufacturer, price / USBPorts >= {}, AVG) over Laptop",
       usb, true},
      {"Q4", "(manufacturer, price / USBPorts <= {}, AVG) over Laptop", usb,
       true},
      {"Q5", "(manufacturer, price / USBPorts >= {}, SUM+AVG+MAX) over Laptop",
       usb, true},
      {"Q6",
       "((manufacturer x YEAR(releaseDate)), price / USBPorts >= {}, AVG) "
       "over Laptop",
       usb, true},
      {"Q7", "(YEAR(releaseDate), USBPorts / USBPorts >= {}, SUM) over Laptop",
       usb, false},
      {"Q8", "(manufacturer, price, AVG / > {}) over Laptop",
       Range(1500, 1700, 10), true},
      {"Q9",
       "(locatedAt o origin o manufacturer, price / USBPorts >= {}, AVG) over "
       "Laptop",
       usb, true},
      {"Q10", "(eps, price / USBPorts >= {}, AVG+MIN+MAX) over Laptop", usb,
       true},
  };
  rdfa::rdf::PrefixMap prefixes;
  prefixes.Register("ex", rdfa::workload::kExampleNs);
  std::vector<CatalogEntry> out;
  for (const Template& t : templates) {
    for (const std::string& c : t.constants) {
      std::string text = t.hifun;
      text.replace(text.find("{}"), 2, c);
      auto t0 = Clock::now();
      auto q = rdfa::hifun::ParseHifun(text, prefixes,
                                       rdfa::workload::kExampleNs);
      auto sparql = q.ok() ? rdfa::translator::TranslateToSparql(q.value())
                           : rdfa::Result<std::string>(q.status());
      if (layers != nullptr) layers->AddMs("translator.build_sparql_ms",
                                           MsSince(t0));
      if (!sparql.ok()) {
        std::fprintf(stderr, "catalog %s: %s\n", text.c_str(),
                     sparql.status().ToString().c_str());
        std::exit(2);
      }
      out.push_back({sparql.value(), false, t.touches_price, t.label});
    }
  }
  return out;
}

std::vector<CatalogEntry> LargeCatalog() {
  // One shape, so that every entry costs about the same: laptops in a price
  // window of width 1000 over prices 300..2999, ~3.7k rows at 10k laptops.
  // 846 distinct windows: far more answer bytes than the answer cache holds.
  std::vector<CatalogEntry> out;
  for (int lo = 300; lo <= 1990; lo += 2) {
    out.push_back({std::string(kPrefix) +
                       "SELECT ?l ?p ?d ?m WHERE { ?l ex:price ?p . "
                       "?l ex:releaseDate ?d . ?l ex:manufacturer ?m . "
                       "FILTER(?p >= " + std::to_string(lo) + " && ?p < " +
                       std::to_string(lo + 1000) + ") }",
                   true, true, "L1"});
  }
  return out;
}

Zipf::Zipf(size_t n, double s) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::operator()(std::mt19937_64& rng) const {
  double u = std::uniform_real_distribution<double>(0, 1)(rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

std::vector<size_t> HotOrder(const std::vector<CatalogEntry>& catalog,
                             uint64_t seed) {
  std::vector<std::vector<size_t>> groups;
  std::map<std::string, size_t> group_of;
  for (size_t i = 0; i < catalog.size(); ++i) {
    auto [it, added] = group_of.emplace(catalog[i].label, groups.size());
    if (added) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  std::mt19937_64 rng(seed);
  for (auto& g : groups) std::shuffle(g.begin(), g.end(), rng);
  std::vector<size_t> order;
  for (size_t level = 0; order.size() < catalog.size(); ++level) {
    for (const auto& g : groups) {
      if (level < g.size()) order.push_back(g[level]);
    }
  }
  return order;
}

// ---- answer checks ---------------------------------------------------------

std::map<std::string, std::vector<double>> CanonicalAnswer(
    const rdfa::sparql::ResultTable& table, size_t group_cols) {
  std::map<std::string, std::vector<double>> out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < group_cols && c < table.num_columns(); ++c) {
      key += rdfa::viz::DisplayTerm(table.at(r, c)) + "|";
    }
    std::vector<double> aggs;
    for (size_t c = group_cols; c < table.num_columns(); ++c) {
      auto v = rdfa::sparql::Value::FromTerm(table.at(r, c)).AsNumeric();
      aggs.push_back(v.value_or(std::nan("")));
    }
    out[key] = aggs;
  }
  return out;
}

bool SameAnswer(const std::map<std::string, std::vector<double>>& a,
                const std::map<std::string, std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, va] : a) {
    auto it = b.find(key);
    if (it == b.end() || it->second.size() != va.size()) return false;
    for (size_t i = 0; i < va.size(); ++i) {
      double x = va[i], y = it->second[i];
      if (std::isnan(x) && std::isnan(y)) continue;
      if (std::fabs(x - y) > 1e-9 * std::max(1.0, std::fabs(x))) return false;
    }
  }
  return true;
}

Digest Digest::Of(std::string_view body) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : body) h = (h ^ c) * 0x100000001b3ull;
  return {body.size(), h};
}

rdfa::Result<std::string> ReferenceBody(rdfa::rdf::Graph* graph,
                                        const std::string& query,
                                        ep::ResultFormat format) {
  RDFA_ASSIGN_OR_RETURN(rdfa::sparql::ParsedQuery parsed,
                        rdfa::sparql::ParseQuery(query));
  rdfa::sparql::Executor exec(graph);
  exec.set_use_dp(true);
  RDFA_ASSIGN_OR_RETURN(rdfa::sparql::ResultTable table, exec.Execute(parsed));
  return ep::RequestHandler::Serialize(table, format);
}

}  // namespace perfbench
