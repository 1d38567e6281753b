// The `endpoint` workload: closed-loop HTTP SPARQL traffic from nproc
// keep-alive connections against an in-process HttpServer, plus the traced
// per-request layer split shared with the other workloads' probes.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "bench.h"
#include "server/http_util.h"
#include "sparql/executor.h"
#include "sparql/parser.h"

namespace perfbench {

namespace ep = rdfa::endpoint;
using rdfa::server::HttpClient;

void TraceQuery(Store* store, const std::string& query, ep::ResultFormat format,
                LayerClock* layers) {
  auto pin = Timed(layers, "rdf.snapshot_ms",
                   [&] { return store->mvcc->Snapshot(); });
  auto parsed = Timed(layers, "sparql.parse_ms",
                      [&] { return rdfa::sparql::ParseQuery(query); });
  if (!parsed.ok()) return;
  rdfa::sparql::Executor exec(pin.graph.get());
  exec.set_use_dp(true);
  Timed(layers, "sparql.plan_ms",
        [&] { return exec.ExplainJson(parsed.value()); });
  auto table = Timed(layers, "sparql.exec_ms",
                     [&] { return exec.Execute(parsed.value()); });
  if (!table.ok()) return;
  const rdfa::sparql::ExecStats& st = exec.stats();
  layers->AddMs("sparql.bgp_ms", st.bgp_ms);
  layers->AddMs("sparql.group_agg_ms", st.group_agg_ms);
  layers->AddMs("sparql.index_build_ms", st.index_build_ms);
  double scanned = 0;
  for (size_t r : st.rows_scanned) scanned += static_cast<double>(r);
  layers->AddCount("sparql.rows_scanned", scanned);
  layers->AddCount("sparql.rows_out",
                   static_cast<double>(table.value().num_rows()));
  std::string body = Timed(layers, "sparql.serialize_ms", [&] {
    return ep::RequestHandler::Serialize(table.value(), format);
  });
  layers->AddCount("sparql.serialize_bytes", static_cast<double>(body.size()));
}

ep::EndpointResponse TimedHandle(Store* store, const std::string& query,
                                 ep::ResultFormat format, LayerClock* layers,
                                 double* ms_out) {
  ep::EndpointRequest req;
  req.query = query;
  req.format = format;
  auto t0 = Clock::now();
  ep::EndpointResponse resp = store->handler->Handle(req);
  double ms = MsSince(t0);
  if (ms_out != nullptr) *ms_out = ms;
  if (layers != nullptr) {
    layers->AddMs("endpoint.handle_ms", ms);
    if (resp.detail.cache_hit) layers->AddMs("endpoint.hit_ms", ms);
    layers->AddCount("endpoint.queued_requests",
                     resp.detail.queued_ms > 0 ? 1 : 0);
  }
  return resp;
}

void AddCacheLayers(const rdfa::CacheStats& answer0,
                    const rdfa::CacheStats& answer1,
                    const rdfa::CacheStats& plan0,
                    const rdfa::CacheStats& plan1, uint64_t repeated_hits,
                    LayerClock* layers) {
  auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  layers->AddCount("endpoint.answer_hit_ratio",
                   ratio(answer1.hits - answer0.hits - repeated_hits,
                         answer1.misses - answer0.misses));
  layers->AddCount("endpoint.plan_hit_ratio",
                   ratio(plan1.hits - plan0.hits, plan1.misses - plan0.misses));
  layers->AddCount("endpoint.answer_evictions",
                   static_cast<double>(answer1.evictions - answer0.evictions));
  layers->AddCount(
      "endpoint.answer_invalidations",
      static_cast<double>(answer1.invalidations - answer0.invalidations));
}

namespace {

struct Target {
  std::string path;  ///< GET target with the percent-encoded query
  ep::ResultFormat format;
  const CatalogEntry* entry;
  Digest reference;  ///< of the uncached reference body
};

/// One GET on a persistent connection, reconnecting once if the server
/// closed it. False on transport failure.
bool Get(HttpClient* client, uint16_t port, const std::string& target,
         HttpClient::Response* resp) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!client->connected() && !client->Connect("127.0.0.1", port)) {
      return false;
    }
    if (client->Get(target, resp)) {
      if (!resp->keep_alive) client->Close();
      return true;
    }
    client->Close();
  }
  return false;
}

std::string TargetPath(const CatalogEntry& e, ep::ResultFormat format) {
  return "/sparql?query=" + rdfa::server::PercentEncode(e.query) +
         (format == ep::ResultFormat::kTsv ? "&format=tsv" : "");
}

struct Tally {
  Clock::time_point start;
  std::vector<double> done_at_ms;  ///< completion times from `start`
  std::vector<double> all_ms;
  std::vector<double> large_ms;
  uint64_t requests = 0;
  /// Split requests whose HTTP leg repeated the answer-cache lookup of a
  /// served direct Handle call, and so found the entry that call left.
  uint64_t repeated_hits = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  void Merge(const Tally& t) {
    done_at_ms.insert(done_at_ms.end(), t.done_at_ms.begin(),
                      t.done_at_ms.end());
    all_ms.insert(all_ms.end(), t.all_ms.begin(), t.all_ms.end());
    large_ms.insert(large_ms.end(), t.large_ms.begin(), t.large_ms.end());
    requests += t.requests;
    repeated_hits += t.repeated_hits;
    failed += t.failed;
    wrong += t.wrong;
  }
};

/// One request: (traced: direct Handle first, for the server split), the
/// timed HTTP round trip, then the byte comparison with the reference.
void OneRequest(Store* store, uint16_t port, HttpClient* client,
                const Target& t, bool split, LayerClock* layers,
                Tally* tally) {
  ep::EndpointResponse direct;
  double handle_ms = 0;
  if (layers != nullptr && split) {
    direct = TimedHandle(store, t.entry->query, t.format, layers, &handle_ms);
    if (direct.http_status == 200) ++tally->repeated_hits;
    TraceQuery(store, t.entry->query, t.format, layers);
  }
  HttpClient::Response resp;
  auto t0 = Clock::now();
  bool ok = Get(client, port, t.path, &resp);
  double ms = MsSince(t0);
  ++tally->requests;
  tally->done_at_ms.push_back(MsSince(tally->start));
  if (!ok || resp.status != 200) {
    ++tally->failed;
    return;
  }
  tally->all_ms.push_back(ms);
  if (t.entry->large) tally->large_ms.push_back(ms);
  if (!(Digest::Of(resp.body) == t.reference)) {
    ++tally->wrong;
    std::fprintf(stderr, "endpoint: body of %s differs from the reference\n",
                 t.entry->label.c_str());
  }
  if (layers != nullptr) {
    layers->AddCount("server.bytes_out", static_cast<double>(resp.body.size()));
    if (split && direct.detail.cache_hit) {
      layers->AddMs("server.overhead_ms", ms - handle_ms);
    }
  }
}

/// The traffic: references, targets and the seeded mix.
struct Traffic {
  std::vector<CatalogEntry> analytic;
  std::vector<CatalogEntry> large;
  std::vector<Target> analytic_targets;
  std::vector<Target> large_targets;  ///< JSON then TSV per large entry
};

/// Computes the uncached reference body of every target with `threads`
/// workers on the pinned version.
bool BuildTraffic(Store* store, std::vector<CatalogEntry> analytic,
                  std::vector<CatalogEntry> large, int threads, Traffic* tr) {
  tr->analytic = std::move(analytic);
  tr->large = std::move(large);
  struct Job {
    const CatalogEntry* e;
    ep::ResultFormat f;
  };
  std::vector<Job> jobs;
  for (const auto& e : tr->analytic) {
    jobs.push_back({&e, ep::ResultFormat::kJson});
  }
  for (const auto& e : tr->large) {
    jobs.push_back({&e, ep::ResultFormat::kJson});
    jobs.push_back({&e, ep::ResultFormat::kTsv});
  }
  std::vector<Digest> refs(jobs.size());
  auto pin = store->mvcc->Snapshot();
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < jobs.size(); i = next++) {
        auto body = ReferenceBody(pin.graph.get(), jobs[i].e->query, jobs[i].f);
        if (!body.ok()) {
          std::fprintf(stderr, "reference %s: %s\n", jobs[i].e->label.c_str(),
                       body.status().ToString().c_str());
          ok = false;
          continue;
        }
        refs[i] = Digest::Of(body.value());
      }
    });
  }
  for (auto& th : pool) th.join();
  for (size_t i = 0; i < jobs.size(); ++i) {
    Target t{TargetPath(*jobs[i].e, jobs[i].f), jobs[i].f, jobs[i].e,
             refs[i]};
    (jobs[i].e->large ? tr->large_targets : tr->analytic_targets).push_back(t);
  }
  return ok;
}

/// The mix's shares and Zipf exponents are chosen, not taken from a
/// measured trace. They are set so that the two properties the workload
/// is defined by hold, and each run prints them (MixNote): the steep
/// analytic distribution keeps the hot analytic set (~80 texts) in the
/// answer cache, while the flat one over 846 large texts, whose answers
/// together far exceed the cache, keeps most large answers out of it. With
/// 8% large requests, the p99 of all requests falls among the large ones.
constexpr uint64_t kLargePercent = 8;
constexpr double kAnalyticZipf = 1.1;
constexpr double kLargeZipf = 0.6;

/// Closed loop over `conns` connections for `seconds`.
Tally Loop(Store* store, const Traffic& tr, uint64_t seed, int conns,
           double seconds, LayerClock* layers) {
  const std::vector<size_t> hot_a = HotOrder(tr.analytic, seed ^ 0xA);
  const std::vector<size_t> hot_l = HotOrder(tr.large, seed ^ 0xB);
  const Zipf zipf_a(hot_a.size(), kAnalyticZipf);
  const Zipf zipf_l(hot_l.size(), kLargeZipf);
  std::vector<Tally> tallies(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  auto t0 = Clock::now();
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(c));
      HttpClient client;
      Tally& tally = tallies[static_cast<size_t>(c)];
      tally.start = t0;
      for (uint64_t i = 0; MsSince(t0) < seconds * 1000; ++i) {
        const Target* t;
        if (rng() % 100 < kLargePercent) {
          size_t l = hot_l[zipf_l(rng)];
          bool tsv = rng() % 4 == 0;
          t = &tr.large_targets[2 * l + (tsv ? 1 : 0)];
        } else {
          t = &tr.analytic_targets[hot_a[zipf_a(rng)]];
        }
        OneRequest(store, store->server->port(), &client, *t, i % 4 == 0,
                   layers, &tally);
      }
    });
  }
  for (auto& th : threads) th.join();
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  return total;
}

/// The measured shape of the mix, from the endpoint's own log of the
/// requests it served since entry `from`: the large-result share and the
/// answer-cache hit ratio of each class. Large queries are the only ones
/// whose text starts with a PREFIX line; translated analytic ones start
/// with SELECT.
std::string MixNote(const ep::SimulatedEndpoint& endpoint, size_t from) {
  const std::vector<ep::QueryLogEntry>& log = endpoint.log();
  double n[2] = {0, 0}, hits[2] = {0, 0};
  for (size_t i = from; i < log.size(); ++i) {
    const int large = log[i].query_head.rfind("PREFIX", 0) == 0 ? 1 : 0;
    n[large] += 1;
    hits[large] += log[i].cache_hit ? 1 : 0;
  }
  auto share = [](double part, double whole) {
    return whole == 0 ? 0.0 : 100.0 * part / whole;
  };
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "mix: large share %.1f%%, answer-cache hits %.1f%% of "
                "analytic, %.1f%% of large requests",
                share(n[1], n[0] + n[1]), share(hits[0], n[0]),
                share(hits[1], n[1]));
  return buf;
}

int Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace

void ProbeHttp(Store* store, const std::vector<CatalogEntry>& catalog,
               uint64_t seed, LayerClock* layers, uint64_t* wrong) {
  // Front the workload's own handler with a one-worker server for the probe.
  rdfa::server::HttpServerOptions sopts;
  sopts.port = 0;
  sopts.worker_threads = 1;
  rdfa::server::HttpServer server(store->handler.get(), sopts);
  if (!server.Start().ok()) {
    ++*wrong;
    return;
  }
  Traffic tr;
  if (!BuildTraffic(store, catalog, {}, 1, &tr)) ++*wrong;
  auto a0 = store->endpoint->answer_cache_stats();
  auto p0 = store->endpoint->plan_cache_stats();
  auto c0 = server.counters();
  std::mt19937_64 rng(seed);
  HttpClient client;
  Tally tally;
  tally.start = Clock::now();
  for (int i = 0; i < 200; ++i) {
    const Target& t = tr.analytic_targets[rng() % tr.analytic_targets.size()];
    OneRequest(store, server.port(), &client, t, true, layers, &tally);
  }
  client.Close();
  AddCacheLayers(a0, store->endpoint->answer_cache_stats(), p0,
                 store->endpoint->plan_cache_stats(), tally.repeated_hits,
                 layers);
  layers->AddCount("server.conns_accepted",
                   static_cast<double>(server.counters().connections_accepted -
                                       c0.connections_accepted));
  server.Stop();
  *wrong += tally.wrong + tally.failed;
}

Outcome RunEndpoint(const RunOptions& opt) {
  Outcome out;
  LayerClock layers;
  LayerClock* traced = opt.trace ? &layers : nullptr;
  const int conns = Nproc();
  StoreSpec spec;
  spec.laptops = 10'000 / opt.shrink;
  spec.seed = opt.seed;
  spec.server_workers = conns;
  spec.wal_path = opt.work_dir + "/endpoint.wal";
  if (opt.trace) spec.commit_tracer = std::make_shared<rdfa::Tracer>();
  std::vector<double> setups;
  auto store = BuildStoreMedian(spec, opt.setup_reps, traced, &setups);
  if (store == nullptr) std::exit(1);
  std::printf("endpoint: %zu laptops, %zu triples, %d connections, "
              "%d server workers, %zu MB answer cache\n",
              spec.laptops, store->triples, conns, conns, kCacheMb);

  Traffic tr;
  if (!BuildTraffic(store.get(), AnalyticCatalog(traced), LargeCatalog(),
                    conns, &tr)) {
    std::exit(1);
  }
  const uint64_t loop_seed = opt.seed * 0x9E3779B97F4A7C15ull + 2;
  // Warm pass: the closed loop starts with the hot set cached.
  Loop(store.get(), tr, loop_seed + 7, conns, std::min(1.0, opt.seconds / 4),
       nullptr);

  auto a0 = store->endpoint->answer_cache_stats();
  auto p0 = store->endpoint->plan_cache_stats();
  auto c0 = store->server->counters();
  const size_t log0 = store->endpoint->log().size();
  Tally t;
  if (!opt.trace) {
    auto t0 = Clock::now();
    t = Loop(store.get(), tr, loop_seed, conns, opt.seconds, nullptr);
    double wall_ms = MsSince(t0);
    out.report.Add("setup_s", store->setup_s, "s");
    out.report.Add("ops_per_s", WindowRate(t.done_at_ms, wall_ms),
                   "1/s");
    out.report.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.report.AddPercentile("primary_p50_ms", t.all_ms, 0.50, "ms");
    out.report.AddPercentile("primary_tail_ms", t.all_ms, 0.99, "ms");
    out.report.AddPercentile("secondary_p50_ms", t.large_ms, 0.50, "ms");
    out.report.AddPercentile("secondary_tail_ms", t.large_ms, 0.90, "ms");
    out.report.Note("primary = HTTP request, send to last byte, tail = p99");
    out.report.Note("secondary = large-result HTTP request, tail = p90");
    out.report.Note(MixNote(*store->endpoint, log0));
  } else {
    auto t0 = Clock::now();
    Tally plain =
        Loop(store.get(), tr, loop_seed, conns, opt.seconds / 2, nullptr);
    double plain_rate =
        static_cast<double>(plain.requests) / (MsSince(t0) / 1000.0);
    t0 = Clock::now();
    t = Loop(store.get(), tr, loop_seed, conns, opt.seconds / 2, &layers);
    double wall_ms = MsSince(t0);
    double rate = static_cast<double>(t.requests) / (wall_ms / 1000.0);
    layers.AddCount("run.trace_overhead_pct", (plain_rate / rate - 1) * 100);
    // Client-thread time not inside a timed layer call.
    double http_ms = 0;
    for (double ms : t.all_ms) http_ms += ms;
    double layer_ms = layers.TotalMs(
        {"endpoint.handle_ms", "rdf.snapshot_ms", "sparql.parse_ms",
         "sparql.plan_ms", "sparql.exec_ms", "sparql.serialize_ms"});
    layers.AddCount("run.unaccounted_share",
                    1.0 - (http_ms + layer_ms) / (wall_ms * conns));
    AddCacheLayers(a0, store->endpoint->answer_cache_stats(), p0,
                   store->endpoint->plan_cache_stats(), t.repeated_hits,
                   &layers);
    layers.AddCount("server.conns_accepted",
                    static_cast<double>(store->server->counters()
                                            .connections_accepted -
                                        c0.connections_accepted));
    t.Merge(plain);
    FinishTraced(store.get(), tr.analytic, opt.seed, &layers, &out);
  }
  out.attempted = t.requests;
  out.wrong += t.wrong;
  out.failed = t.failed + t.wrong;
  return out;
}

}  // namespace perfbench
