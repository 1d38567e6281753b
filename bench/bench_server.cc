// Load generator for the HTTP SPARQL endpoint: closed-loop (N connections
// issuing back-to-back requests) and open-loop (fixed arrival rate, latency
// measured from the *scheduled* arrival so queueing delay is charged to the
// server, not hidden by coordinated omission) legs over real loopback
// sockets, plus a shed leg that tightens admission until 503s flow.
//
//   ./build/bench/bench_server --scale=2k --conns=64 --duration-ms=2000
//   ./build/bench/bench_server --port=8080           # external server
//   ./build/bench/bench_server --json=bench_server.json
//
// Without --port the bench hosts the server in-process on an ephemeral
// port (the CI default: one binary, no orchestration). Each leg reports
// p50/p95/p99/max latency, throughput, and the 200/503/504/4xx/5xx split;
// `ci/validate_bench.py server-gates` asserts over the JSON.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "endpoint/endpoint.h"
#include "endpoint/request_handler.h"
#include "rdf/mvcc.h"
#include "server/http_server.h"
#include "server/http_util.h"
#include "sparql/executor.h"
#include "workload/products.h"

namespace {

using rdfa::bench::JsonArray;
using rdfa::bench::JsonObject;
using rdfa::bench::MsSince;
using rdfa::bench::ParseScale;
using rdfa::bench::Percentile;
using rdfa::bench::WriteJsonFile;
using rdfa::server::HttpClient;

constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

// The bench_ablation join suite: multi-pattern joins over the product KG,
// from a 2-pattern chain to a selective 4-pattern star.
const char* kQueries[] = {
    "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . }",
    "SELECT ?l ?m ?c ?g WHERE { ?l ex:manufacturer ?m . ?m ex:origin ?c . "
    "?c ex:GDPPerCapita ?g . }",
    "SELECT ?l ?p ?c WHERE { ?l ex:manufacturer ?m . ?l ex:price ?p . "
    "?m ex:origin ?c . }",
    "SELECT ?l ?h ?c WHERE { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm . "
    "?hm ex:origin ?c . }",
    "SELECT ?l ?m WHERE { ?l ex:releaseDate ?d . ?l ex:price ?p . "
    "?l ex:manufacturer ?m . ?m ex:origin ex:country0 . }",
};
constexpr size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);

/// Pre-rendered GET target for query i (rotating through the suite).
std::string TargetFor(size_t i) {
  std::string q = std::string(kPfx) + kQueries[i % kQueryCount];
  return "/sparql?query=" + rdfa::server::PercentEncode(q);
}

/// Outcome tally of one leg; merged across client threads.
struct Tally {
  uint64_t requests = 0;
  uint64_t ok_200 = 0;
  uint64_t shed_503 = 0;
  uint64_t timeout_504 = 0;
  uint64_t errors_4xx = 0;
  uint64_t errors_5xx = 0;  ///< 5xx other than 503/504 — the gate is zero
  uint64_t transport_errors = 0;
  std::vector<double> latencies_ms;

  void Merge(const Tally& other) {
    requests += other.requests;
    ok_200 += other.ok_200;
    shed_503 += other.shed_503;
    timeout_504 += other.timeout_504;
    errors_4xx += other.errors_4xx;
    errors_5xx += other.errors_5xx;
    transport_errors += other.transport_errors;
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
  }

  void Count(int status) {
    ++requests;
    if (status == 200) ++ok_200;
    else if (status == 503) ++shed_503;
    else if (status == 504) ++timeout_504;
    else if (status >= 400 && status < 500) ++errors_4xx;
    else ++errors_5xx;
  }
};

/// One GET on a persistent connection, reconnecting once if the server
/// closed it (e.g. after an error response). Returns the HTTP status, or
/// -1 on transport failure.
int OneRequest(HttpClient* client, const std::string& host, uint16_t port,
               const std::string& target) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!client->connected() && !client->Connect(host, port)) return -1;
    HttpClient::Response resp;
    if (client->Get(target, &resp)) {
      if (!resp.keep_alive) client->Close();
      return resp.status;
    }
    client->Close();  // dead connection; retry once on a fresh one
  }
  return -1;
}

/// Closed loop: `conns` client threads, each its own connection, each
/// issuing requests back-to-back for `duration_ms`. Latency is
/// send-to-response. This measures peak sustainable throughput.
Tally RunClosedLoop(const std::string& host, uint16_t port, int conns,
                    double duration_ms) {
  std::vector<Tally> per_thread(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      Tally& tally = per_thread[static_cast<size_t>(t)];
      size_t i = static_cast<size_t>(t);  // stagger the query mix
      while (MsSince(t0) < duration_ms) {
        auto sent = std::chrono::steady_clock::now();
        int status = OneRequest(&client, host, port, TargetFor(i++));
        if (status < 0) {
          ++tally.transport_errors;
          continue;
        }
        tally.Count(status);
        tally.latencies_ms.push_back(MsSince(sent));
      }
    });
  }
  for (auto& th : threads) th.join();
  Tally total;
  for (const Tally& t : per_thread) total.Merge(t);
  return total;
}

/// Open loop: arrivals scheduled at a fixed rate; `conns` client threads
/// pull the next scheduled arrival, wait for its time, and charge the
/// response latency from the *scheduled* instant — a slow server accrues
/// backlog instead of silently slowing the generator down.
Tally RunOpenLoop(const std::string& host, uint16_t port, int conns,
                  double rate_rps, double duration_ms) {
  size_t total_arrivals =
      static_cast<size_t>(rate_rps * duration_ms / 1000.0);
  if (total_arrivals == 0) total_arrivals = 1;
  double gap_ms = 1000.0 / rate_rps;
  std::atomic<size_t> next{0};
  std::vector<Tally> per_thread(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      Tally& tally = per_thread[static_cast<size_t>(t)];
      while (true) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total_arrivals) break;
        auto arrival =
            t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         static_cast<double>(i) * gap_ms));
        std::this_thread::sleep_until(arrival);  // no-op once backlogged
        int status = OneRequest(&client, host, port, TargetFor(i));
        if (status < 0) {
          ++tally.transport_errors;
          continue;
        }
        tally.Count(status);
        tally.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - arrival)
                .count());
      }
    });
  }
  for (auto& th : threads) th.join();
  Tally total;
  for (const Tally& t : per_thread) total.Merge(t);
  return total;
}

std::string RenderRun(const std::string& name, const std::string& mode,
                      int conns, double rate_rps, double duration_ms,
                      double elapsed_ms, const Tally& t) {
  JsonObject run;
  run.AddString("name", name);
  run.AddString("mode", mode);
  run.AddInt("connections", static_cast<uint64_t>(conns));
  run.AddNumber("rate_rps", rate_rps);
  run.AddNumber("duration_ms", duration_ms);
  run.AddNumber("elapsed_ms", elapsed_ms);
  run.AddInt("requests", t.requests);
  run.AddInt("ok_200", t.ok_200);
  run.AddInt("shed_503", t.shed_503);
  run.AddInt("timeout_504", t.timeout_504);
  run.AddInt("errors_4xx", t.errors_4xx);
  run.AddInt("errors_5xx", t.errors_5xx);
  run.AddInt("transport_errors", t.transport_errors);
  run.AddNumber("throughput_rps",
                elapsed_ms > 0 ? 1000.0 * static_cast<double>(t.requests) /
                                     elapsed_ms
                               : 0);
  run.AddNumber("p50_ms", Percentile(t.latencies_ms, 0.50));
  run.AddNumber("p95_ms", Percentile(t.latencies_ms, 0.95));
  run.AddNumber("p99_ms", Percentile(t.latencies_ms, 0.99));
  run.AddNumber("max_ms", Percentile(t.latencies_ms, 1.0));
  return run.Render();
}

void PrintLeg(const std::string& name, double elapsed_ms, const Tally& t) {
  std::printf(
      "%-12s %6llu req  %8.1f req/s  p50 %7.2f  p95 %7.2f  p99 %7.2f ms  "
      "(200:%llu 503:%llu 504:%llu 4xx:%llu 5xx:%llu xport:%llu)\n",
      name.c_str(), static_cast<unsigned long long>(t.requests),
      elapsed_ms > 0 ? 1000.0 * static_cast<double>(t.requests) / elapsed_ms
                     : 0,
      Percentile(t.latencies_ms, 0.50), Percentile(t.latencies_ms, 0.95),
      Percentile(t.latencies_ms, 0.99),
      static_cast<unsigned long long>(t.ok_200),
      static_cast<unsigned long long>(t.shed_503),
      static_cast<unsigned long long>(t.timeout_504),
      static_cast<unsigned long long>(t.errors_4xx),
      static_cast<unsigned long long>(t.errors_5xx),
      static_cast<unsigned long long>(t.transport_errors));
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = 0;  // 0 = host the server in-process
  int conns = 16;
  int server_threads = 4;
  size_t scale = 2000;
  double duration_ms = 2000;
  double rate_rps = 200;
  bool skip_shed = false;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) host = arg.substr(7);
    else if (arg.rfind("--port=", 0) == 0) port = std::atol(arg.c_str() + 7);
    else if (arg.rfind("--conns=", 0) == 0) conns = std::atoi(arg.c_str() + 8);
    else if (arg.rfind("--threads=", 0) == 0)
      server_threads = std::atoi(arg.c_str() + 10);
    else if (arg.rfind("--scale=", 0) == 0) scale = ParseScale(arg.c_str() + 8);
    else if (arg.rfind("--duration-ms=", 0) == 0)
      duration_ms = std::strtod(arg.c_str() + 14, nullptr);
    else if (arg.rfind("--rate=", 0) == 0)
      rate_rps = std::strtod(arg.c_str() + 7, nullptr);
    else if (arg == "--no-shed-leg") skip_shed = true;
    else if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (conns < 1) conns = 1;

  // In-process server (the default): the same wiring rdfa_server does,
  // minus the flags — MVCC store, cache on, local latency profile.
  std::unique_ptr<rdfa::rdf::MvccGraph> mvcc;
  std::unique_ptr<rdfa::endpoint::SimulatedEndpoint> endpoint;
  std::unique_ptr<rdfa::endpoint::RequestHandler> handler;
  std::unique_ptr<rdfa::server::HttpServer> server;
  bool in_process = port == 0;
  if (in_process) {
    auto base = std::make_unique<rdfa::rdf::Graph>();
    rdfa::workload::ProductKgOptions kg;
    kg.laptops = scale == 0 ? 2000 : scale;
    size_t triples = rdfa::workload::GenerateProductKg(base.get(), kg);
    rdfa::rdf::MvccGraph::Options mopts;
    mopts.update_fn = rdfa::sparql::ApplyUpdate;
    auto opened =
        rdfa::rdf::MvccGraph::Open(std::move(mopts), std::move(base));
    if (!opened.ok()) {
      std::fprintf(stderr, "store: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    mvcc = std::move(opened).value();
    endpoint = std::make_unique<rdfa::endpoint::SimulatedEndpoint>(
        mvcc.get(), rdfa::endpoint::LatencyProfile::Local(), true);
    rdfa::endpoint::AdmissionOptions adm;
    adm.max_in_flight = 8;
    adm.max_queue = 128;
    adm.base_timeout_ms = 0;
    endpoint->set_admission(adm);
    endpoint->set_use_dp(true);
    handler = std::make_unique<rdfa::endpoint::RequestHandler>(
        endpoint.get(), /*max_timeout_ms=*/10'000);
    rdfa::server::HttpServerOptions sopts;
    sopts.port = 0;
    sopts.worker_threads = server_threads;
    server = std::make_unique<rdfa::server::HttpServer>(handler.get(), sopts);
    rdfa::Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
      return 1;
    }
    port = server->port();
    std::printf("in-process server: 127.0.0.1:%ld, %d workers, %zu triples\n",
                port, server_threads, triples);
  } else {
    std::printf("external server: %s:%ld\n", host.c_str(), port);
    skip_shed = true;  // can't reconfigure a remote server's admission
  }

  std::vector<std::string> runs;

  auto t0 = std::chrono::steady_clock::now();
  Tally closed = RunClosedLoop(host, static_cast<uint16_t>(port), conns,
                               duration_ms);
  double closed_ms = MsSince(t0);
  PrintLeg("closed", closed_ms, closed);
  runs.push_back(RenderRun("closed", "closed-loop", conns, 0, duration_ms,
                           closed_ms, closed));

  t0 = std::chrono::steady_clock::now();
  Tally open = RunOpenLoop(host, static_cast<uint16_t>(port), conns,
                           rate_rps, duration_ms);
  double open_ms = MsSince(t0);
  PrintLeg("open", open_ms, open);
  runs.push_back(RenderRun("open", "open-loop", conns, rate_rps, duration_ms,
                           open_ms, open));

  if (!skip_shed) {
    // Shed leg: admission tightened to one slot and no queue, so concurrent
    // clients *must* draw 503s — proving the shed path reaches the wire.
    rdfa::endpoint::AdmissionOptions tight;
    tight.max_in_flight = 1;
    tight.max_queue = 0;
    tight.base_timeout_ms = 0;
    endpoint->set_admission(tight);
    // Cache hits hold the slot only for microseconds, which would make
    // collisions (and therefore sheds) timing-dependent; with the cache off
    // every request executes while holding the slot.
    rdfa::CacheOptions cache_off;
    cache_off.enabled = false;
    endpoint->set_cache_options(cache_off);
    t0 = std::chrono::steady_clock::now();
    Tally shed = RunClosedLoop(host, static_cast<uint16_t>(port),
                               conns < 8 ? 8 : conns, duration_ms / 2);
    double shed_ms = MsSince(t0);
    PrintLeg("closed-shed", shed_ms, shed);
    runs.push_back(RenderRun("closed-shed", "closed-loop",
                             conns < 8 ? 8 : conns, 0, duration_ms / 2,
                             shed_ms, shed));
  }

  if (server != nullptr) {
    server->Stop();
    const auto c = server->counters();
    std::printf("server counters: accepted=%llu open=%llu served=%llu "
                "parse_errors=%llu\n",
                static_cast<unsigned long long>(c.connections_accepted),
                static_cast<unsigned long long>(c.connections_open),
                static_cast<unsigned long long>(c.requests_served),
                static_cast<unsigned long long>(c.parse_errors));
  }

  if (!json_path.empty()) {
    JsonObject doc;
    doc.AddString("bench", "bench_server");
    doc.AddString("target", in_process ? "in-process" : "external");
    doc.AddInt("scale", static_cast<uint64_t>(scale));
    doc.AddRaw("runs", JsonArray(runs));
    if (!WriteJsonFile(json_path, doc.Render())) return 1;
  }
  return 0;
}
