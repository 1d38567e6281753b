// Shared pieces of the rdfa benchmark: percentiles, the metric report, the
// per-layer clock of traced runs, the product-KG store every workload runs
// on, the seeded query mixes, and answer canonicalization.

#ifndef RDFA_PERFBENCH_BENCH_H_
#define RDFA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/trace.h"
#include "endpoint/endpoint.h"
#include "endpoint/request_handler.h"
#include "rdf/mvcc.h"
#include "server/http_server.h"
#include "sparql/result_table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- percentiles -----------------------------------------------------------

/// A nearest-rank percentile: the ceil(q*n)-th smallest sample. It is
/// reportable only when at least kMinBeyond samples lie beyond it, so a
/// tail figure always rests on a tail of real observations.
struct Percentile {
  static constexpr size_t kMinBeyond = 10;
  double q = 0;
  size_t n = 0;       ///< sample count
  size_t beyond = 0;  ///< samples strictly after the chosen rank
  double value = 0;   ///< meaningful only when ok()
  bool ok() const { return n > 0 && beyond >= kMinBeyond; }
};

Percentile NearestRank(std::vector<double> samples, double q);

/// Plain median (mean of the two middle values for even n); 0 when empty.
double Median(std::vector<double> samples);

// ---- the report ------------------------------------------------------------

/// Ordered name -> (value, unit) metrics, plus the reasons a metric could not
/// be reported. Printed as human-readable lines and as the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds a nearest-rank percentile under `name`, or records why not.
  void AddPercentile(const std::string& name, const std::vector<double>& v,
                     double q, const std::string& unit);
  /// A human-readable line that is not a metric (aliases, probe notes).
  void Note(const std::string& line) { notes_.push_back(line); }

  bool complete() const { return missing_.empty(); }
  const std::vector<std::string>& missing() const { return missing_; }
  bool Has(const std::string& name) const;

  void PrintLines(FILE* out) const;
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  std::vector<std::string> missing_;
};

/// Peak resident set of this process in MiB (VmHWM), 0 if unavailable.
double PeakRssMb();

/// Operations completed per second: the interquartile mean over the whole
/// one-second windows of the run (completion times in ms from its start), so
/// that a short burst of interference from outside moves it less than a
/// run-wide mean would. Falls back to the overall rate under two windows.
double WindowRate(const std::vector<double>& done_at_ms, double wall_ms);

// ---- per-layer clock (traced runs) -----------------------------------------

/// Accumulates, per layer metric, the sum and number of recorded values:
/// wall times of calls, and program-reported or counted quantities.
/// Thread-safe. A null LayerClock* means "untraced".
class LayerClock {
 public:
  void AddMs(const std::string& name, double ms);
  void AddCount(const std::string& name, double value);
  /// Mean per call (for *_ms entries) or per record (for counts); 0 if none.
  double Mean(const std::string& name) const;
  double Sum(const std::string& name) const;
  /// Sum of the named entries.
  double TotalMs(const std::vector<std::string>& names) const;
  /// Copies in every entry of `other` this clock has no record of, and
  /// returns their names.
  std::vector<std::string> MergeAbsent(const LayerClock& other);

 private:
  struct Acc {
    double sum = 0;
    size_t n = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Acc> acc_;
};

/// Times `fn()` into `clock` under `name` (ms) when clock is non-null.
template <typename Fn>
auto Timed(LayerClock* clock, const char* name, Fn&& fn) {
  if (clock == nullptr) return fn();
  auto t0 = Clock::now();
  auto result = fn();
  clock->AddMs(name, MsSince(t0));
  return result;
}

// ---- the store -------------------------------------------------------------

/// Answer-cache budget of every store (the rdfa_server default).
inline constexpr size_t kCacheMb = 64;

/// How a workload's store is built and wired.
struct StoreSpec {
  size_t laptops = 10'000;
  size_t companies = 20;  ///< the product KG's default
  uint64_t seed = 1;
  std::string wal_path;  ///< empty = no WAL
  int server_workers = 0;  ///< 0 = no HTTP server
  /// MVCC commit tracer (wal-append / commit-apply / commit-publish spans).
  std::shared_ptr<rdfa::Tracer> commit_tracer;
};

/// The product KG with its RDFS closure inside an MvccGraph, wired to an
/// endpoint and request handler as the rdfa_server binary wires them (DP
/// planner, LatencyProfile::Local, answer cache on, admission without a
/// derived deadline), optionally fronted by an in-process HTTP server on an
/// ephemeral port.
struct Store {
  std::unique_ptr<rdfa::rdf::MvccGraph> mvcc;
  std::unique_ptr<rdfa::endpoint::SimulatedEndpoint> endpoint;
  std::unique_ptr<rdfa::endpoint::RequestHandler> handler;
  std::unique_ptr<rdfa::server::HttpServer> server;
  size_t laptops = 0;
  size_t triples = 0;
  double setup_s = 0;
  std::string wal_path;
  std::shared_ptr<rdfa::Tracer> commit_tracer;

  ~Store();
};

/// Builds a store: generate, RDFS closure, freeze, open (WAL replay/append
/// position), wire, warm up (one cold and one warm pass of the analytic
/// suite, so lazy secondary indexes exist before timing), start the server.
/// Set-up phase times go to `layers` (rdf.generate_ms, rdf.closure_ms,
/// rdf.freeze_ms, rdf.first_query_ms) when it is non-null.
std::unique_ptr<Store> BuildStore(const StoreSpec& spec, LayerClock* layers);

/// Builds the store `reps` times (keeping the last) and returns it with
/// setup_s set to the median build time.
std::unique_ptr<Store> BuildStoreMedian(const StoreSpec& spec, int reps,
                                        LayerClock* layers,
                                        std::vector<double>* times_s);

// ---- query mixes -----------------------------------------------------------

/// One distinct request text of a workload's catalog.
struct CatalogEntry {
  std::string query;  ///< SPARQL text sent to the endpoint
  bool large = false;          ///< join/projection returning many rows
  bool touches_price = false;  ///< reads ex:price (mixed-rw invalidation)
  std::string label;           ///< template id, e.g. "Q3" or "L2"
};

/// The Q1-Q10 HIFUN analytic suite with seeded restriction constants,
/// translated to SPARQL: one entry per distinct (template, constant).
/// `layers` (optional) receives translator.build_sparql_ms per entry.
std::vector<CatalogEntry> AnalyticCatalog(LayerClock* layers);

/// Join/projection queries returning thousands of rows at 10k laptops.
std::vector<CatalogEntry> LargeCatalog();

/// Zipf(s) sampler over ranks [0, n): rank r has weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The catalog in Zipf rank order: templates take turns (rank r belongs to
/// template r mod T while each has entries left), and the seed only picks
/// which constant of each template sits at each of its ranks. So the share
/// of traffic per template, and with it the cost mix, is the same for every
/// seed; the query texts are not.
std::vector<size_t> HotOrder(const std::vector<CatalogEntry>& catalog,
                             uint64_t seed);

// ---- answer checks ---------------------------------------------------------

/// An analytic answer as group-key -> aggregate values, independent of row
/// order (the reference HIFUN evaluator and the SPARQL path order rows
/// differently). `group_cols` leading columns form the key.
std::map<std::string, std::vector<double>> CanonicalAnswer(
    const rdfa::sparql::ResultTable& table, size_t group_cols);

/// True when two canonical answers agree (relative tolerance 1e-9).
bool SameAnswer(const std::map<std::string, std::vector<double>>& a,
                const std::map<std::string, std::vector<double>>& b);

/// A body's length and 64-bit FNV-1a hash. Each FNV-1a step is a bijection
/// of the running state, so bodies of equal length that differ in one byte
/// always get different digests.
struct Digest {
  size_t size = 0;
  uint64_t fnv = 0;
  static Digest Of(std::string_view body);
  bool operator==(const Digest& o) const {
    return size == o.size && fnv == o.fnv;
  }
};

/// Uncached reference body: parse + Executor (DP planner, like the endpoint)
/// on `graph` + RequestHandler::Serialize.
rdfa::Result<std::string> ReferenceBody(rdfa::rdf::Graph* graph,
                                        const std::string& query,
                                        rdfa::endpoint::ResultFormat format);

// ---- traced per-request split ----------------------------------------------

/// Times one query layer by layer on a fresh snapshot pin: rdf.snapshot_ms,
/// sparql.parse_ms, sparql.plan_ms (ExplainJson), sparql.exec_ms with the
/// program-reported ExecStats, and sparql.serialize_ms / _bytes.
void TraceQuery(Store* store, const std::string& query,
                rdfa::endpoint::ResultFormat format, LayerClock* layers);

/// RequestHandler::Handle, timed into `*ms_out` (optional) and, when
/// `layers` is set, into endpoint.handle_ms / endpoint.hit_ms.
rdfa::endpoint::EndpointResponse TimedHandle(
    Store* store, const std::string& query,
    rdfa::endpoint::ResultFormat format, LayerClock* layers, double* ms_out);

/// Program-reported answer/plan cache counters between two snapshots.
/// `repeated_hits` answer-cache hits were the benchmark's own repeat of a
/// lookup just made, and are left out of the hit ratio.
void AddCacheLayers(const rdfa::CacheStats& answer0,
                    const rdfa::CacheStats& answer1,
                    const rdfa::CacheStats& plan0,
                    const rdfa::CacheStats& plan1, uint64_t repeated_hits,
                    LayerClock* layers);

// ---- workloads -------------------------------------------------------------

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  ///< WAL and other run files go here
  /// Scale divisor for self-tests (1 = the documented scale).
  size_t shrink = 1;
  int setup_reps = 9;
};

/// What every workload returns: the metrics plus the correctness tally.
struct Outcome {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;     ///< failed operations (wrong answers included)
  uint64_t wrong = 0;      ///< failed answer checks
};

Outcome RunExplore(const RunOptions& opt);
Outcome RunEndpoint(const RunOptions& opt);
Outcome RunMixedRw(const RunOptions& opt);

// Side probes of a traced run. Each workload's own loop reaches only some
// layers; so that every traced run reports every layer, the others are
// timed on a short fixed probe of the other workloads' operations over the
// same store, and merged in only where the loop left no record.

/// Three scripted explore sessions on the store's current version.
void ProbeExplore(Store* store, uint64_t seed, LayerClock* layers,
                  uint64_t* wrong);
/// 200 analytic requests over one connection to a one-worker HttpServer
/// fronting the store's handler, each split into Handle and query layers.
void ProbeHttp(Store* store, const std::vector<CatalogEntry>& catalog,
               uint64_t seed, LayerClock* layers, uint64_t* wrong);
/// 1.5 s of one-price-triple commits at 4 commits/s.
void ProbeCommits(Store* store, uint64_t seed, LayerClock* layers);

/// The traced-run tail every workload shares: probes into a side clock,
/// merged where `layers` has no record, then every per-layer metric of
/// BENCHMARK.json into `report`.
void FinishTraced(Store* store, const std::vector<CatalogEntry>& catalog,
                  uint64_t seed, LayerClock* layers, Outcome* out);

/// Emits every per-layer metric from `layers`.
void EmitLayers(const LayerClock& layers, Report* report);

}  // namespace perfbench

#endif  // RDFA_PERFBENCH_BENCH_H_
