// rdfa_server: the network front-end of the engine. One process serving the
// SPARQL protocol dialect over HTTP/1.1 — admission control, per-request
// deadlines, the stamp-checked query cache, MVCC snapshot reads, tracing
// and the query log all come from the shared request pipeline.
//
//   ./build/src/rdfa_server --port=8080 --threads=4 --scale=1000
//   ./build/src/rdfa_server --port=8080 --wal=/tmp/rdfa.wal
//
// Endpoints: GET/POST /sparql, GET /explain, GET /metrics, GET /healthz.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "endpoint/endpoint.h"
#include "endpoint/request_handler.h"
#include "rdf/mvcc.h"
#include "server/http_server.h"
#include "sparql/executor.h"
#include "workload/products.h"

namespace {

std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void PrintUsage() {
  std::fprintf(stderr, R"(usage: rdfa_server [flags]
  --host=ADDR          bind address (default 127.0.0.1)
  --port=N             listen port; 0 = ephemeral, printed (default 8080)
  --threads=N          HTTP worker threads (default 4)
  --exec-threads=N     morsel-parallelism budget per query (default 1)
  --scale=N            generate the product KG with N laptops
                       (default: the small running example)
  --wal=PATH           durable MVCC mode: replay + append this WAL
  --cache-mb=N         answer-cache budget; 0 disables (default 64)
  --max-in-flight=N    queries executing concurrently (default 8)
  --max-queue=N        admission FIFO depth beyond that (default 64)
  --timeout-ms=N       cap for (and default of) the per-request timeout=
                       parameter; 0 = uncapped (default 30000)
  --query-log=PATH     structured one-line-per-query JSON log
  --slow-query-dir=DIR slow-query capture ring (threshold --slow-query-ms)
  --slow-query-ms=N    capture threshold (default 250)
)");
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = 8080;
  int threads = 4;
  int exec_threads = 1;
  size_t scale = 0;
  std::string wal_path, query_log_path, slow_dir;
  double slow_ms = 250;
  size_t cache_mb = 64;
  size_t max_in_flight = 8;
  size_t max_queue = 64;
  double timeout_ms = 30'000;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], v;
    if (ParseFlag(arg, "host", &v)) {
      host = v;
    } else if (ParseFlag(arg, "port", &v)) {
      port = std::atol(v.c_str());
    } else if (ParseFlag(arg, "threads", &v)) {
      threads = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "exec-threads", &v)) {
      exec_threads = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "scale", &v)) {
      scale = static_cast<size_t>(std::atol(v.c_str()));
    } else if (ParseFlag(arg, "wal", &v)) {
      wal_path = v;
    } else if (ParseFlag(arg, "cache-mb", &v)) {
      cache_mb = static_cast<size_t>(std::atol(v.c_str()));
    } else if (ParseFlag(arg, "max-in-flight", &v)) {
      max_in_flight = static_cast<size_t>(std::atol(v.c_str()));
    } else if (ParseFlag(arg, "max-queue", &v)) {
      max_queue = static_cast<size_t>(std::atol(v.c_str()));
    } else if (ParseFlag(arg, "timeout-ms", &v)) {
      timeout_ms = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(arg, "query-log", &v)) {
      query_log_path = v;
    } else if (ParseFlag(arg, "slow-query-dir", &v)) {
      slow_dir = v;
    } else if (ParseFlag(arg, "slow-query-ms", &v)) {
      slow_ms = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "bad --port=%ld\n", port);
    return 2;
  }

  // Seed dataset: the running example, or the generated product KG.
  auto base = std::make_unique<rdfa::rdf::Graph>();
  if (scale > 0) {
    rdfa::workload::ProductKgOptions kg;
    kg.laptops = scale;
    size_t triples = rdfa::workload::GenerateProductKg(base.get(), kg);
    std::printf("dataset: product KG, scale=%zu (%zu triples)\n", scale,
                triples);
  } else {
    rdfa::workload::BuildRunningExample(base.get());
    std::printf("dataset: running example (%zu triples)\n", base->size());
  }

  // Always MVCC: queries pin immutable snapshots, so commits through the
  // MvccGraph (e.g. a WAL writer) never stall readers. --wal adds
  // durability on top.
  rdfa::rdf::MvccGraph::Options mopts;
  mopts.wal_path = wal_path;
  mopts.update_fn = rdfa::sparql::ApplyUpdate;
  auto opened = rdfa::rdf::MvccGraph::Open(std::move(mopts), std::move(base));
  if (!opened.ok()) {
    std::fprintf(stderr, "error: cannot open store: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<rdfa::rdf::MvccGraph> mvcc = std::move(opened).value();
  if (!wal_path.empty()) {
    const auto info = mvcc->open_info();
    std::printf("wal: %s — replayed %llu records (%llu torn bytes)\n",
                wal_path.c_str(),
                static_cast<unsigned long long>(info.replayed_records),
                static_cast<unsigned long long>(info.truncated_bytes));
  }

  rdfa::endpoint::SimulatedEndpoint endpoint(
      mvcc.get(), rdfa::endpoint::LatencyProfile::Local(),
      /*enable_cache=*/cache_mb > 0);
  rdfa::CacheOptions copts;
  copts.max_bytes = cache_mb << 20;
  copts.max_entries = 4096;
  copts.enabled = cache_mb > 0;
  endpoint.set_cache_options(copts);
  rdfa::endpoint::AdmissionOptions adm;
  adm.max_in_flight = max_in_flight;
  adm.max_queue = max_queue;
  adm.base_timeout_ms = 0;  // the HTTP layer's timeout cap governs
  endpoint.set_admission(adm);
  endpoint.set_thread_count(exec_threads);
  endpoint.set_use_dp(true);
  if (!query_log_path.empty()) endpoint.set_query_log_path(query_log_path);
  if (!slow_dir.empty()) endpoint.set_slow_query_capture(slow_dir, slow_ms);

  rdfa::endpoint::RequestHandler handler(&endpoint, timeout_ms);
  rdfa::server::HttpServerOptions sopts;
  sopts.host = host;
  sopts.port = static_cast<uint16_t>(port);
  sopts.worker_threads = threads;
  sopts.max_timeout_ms = timeout_ms;
  rdfa::server::HttpServer server(&handler, sopts);
  rdfa::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("rdfa_server listening on http://%s:%u/sparql "
              "(%d workers, %zu in-flight, queue %zu)\n",
              host.c_str(), server.port(), threads, max_in_flight, max_queue);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0 && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  server.Stop();
  const auto c = server.counters();
  std::printf("served %llu requests on %llu connections\n",
              static_cast<unsigned long long>(c.requests_served),
              static_cast<unsigned long long>(c.connections_accepted));
  return 0;
}
