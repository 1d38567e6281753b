#include "endpoint/endpoint.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/metrics.h"
#include "common/query_registry.h"
#include "common/trace.h"
#include "sparql/executor.h"
#include "sparql/footprint.h"
#include "sparql/parser.h"

namespace rdfa::endpoint {

LatencyProfile LatencyProfile::Peak() {
  LatencyProfile p;
  p.name = "peak";
  p.load_multiplier = 3.5;    // busy endpoint: queued behind other clients
  p.network_base_ms = 180.0;  // loaded network round-trip
  p.network_jitter_ms = 240.0;
  return p;
}

LatencyProfile LatencyProfile::OffPeak() {
  LatencyProfile p;
  p.name = "off-peak";
  p.load_multiplier = 1.0;
  p.network_base_ms = 60.0;
  p.network_jitter_ms = 40.0;
  return p;
}

LatencyProfile LatencyProfile::Local() {
  LatencyProfile p;
  p.name = "local";
  return p;
}

SimulatedEndpoint::SimulatedEndpoint(rdf::Graph* graph, LatencyProfile profile,
                                     bool enable_cache)
    : graph_(graph), profile_(std::move(profile)) {
  CacheOptions opts;
  opts.enabled = enable_cache;
  set_cache_options(opts);
}

SimulatedEndpoint::SimulatedEndpoint(rdf::MvccGraph* mvcc,
                                     LatencyProfile profile, bool enable_cache)
    : graph_(nullptr), mvcc_(mvcc), profile_(std::move(profile)) {
  CacheOptions opts;
  opts.enabled = enable_cache;
  set_cache_options(opts);
}

void SimulatedEndpoint::set_cache_options(CacheOptions opts) {
  cache_opts_ = opts;
  answer_cache_ = std::make_unique<LruCache<sparql::ResultTable>>(
      opts, "rdfa_endpoint_cache");
  CacheOptions plan_opts = sparql::PlanCache::DefaultOptions();
  plan_opts.enabled =
      opts.enabled && opts.max_bytes > 0 && opts.max_entries > 0;
  plan_cache_ = std::make_unique<sparql::PlanCache>(plan_opts);
}

double SimulatedEndpoint::SimulatedNetworkMs(const std::string& sparql) {
  if (profile_.network_base_ms == 0 && profile_.network_jitter_ms == 0) {
    return 0;
  }
  // xorshift over (query hash ^ running state): deterministic per call
  // sequence, so benchmark runs are reproducible.
  uint64_t h = std::hash<std::string>()(sparql);
  jitter_state_ ^= h;
  jitter_state_ ^= jitter_state_ << 13;
  jitter_state_ ^= jitter_state_ >> 7;
  jitter_state_ ^= jitter_state_ << 17;
  double unit = static_cast<double>(jitter_state_ % 10000) / 10000.0;
  return profile_.network_base_ms + unit * profile_.network_jitter_ms;
}

namespace {
QueryLogEntry MakeLogEntry(const std::string& sparql,
                           const QueryResponse& resp) {
  QueryLogEntry entry;
  size_t newline = sparql.find('\n');
  entry.query_head = sparql.substr(0, newline);
  entry.exec_ms = resp.exec_ms;
  entry.total_ms = resp.total_ms;
  entry.queued_ms = resp.queued_ms;
  entry.rows = resp.table.num_rows();
  entry.cache_hit = resp.cache_hit;
  return entry;
}

const char* OutcomeName(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kResourceExhausted: return "shed";
    case StatusCode::kDeadlineExceeded: return "timed_out";
    case StatusCode::kCancelled: return "cancelled";
    default: return "error";
  }
}
}  // namespace

void SimulatedEndpoint::AdmissionSlot::Release() {
  if (endpoint_ != nullptr) {
    endpoint_->ReleaseSlot();
    endpoint_ = nullptr;
  }
}

void SimulatedEndpoint::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lock(adm_mu_);
    --in_flight_;
  }
  adm_cv_.notify_all();
}

void SimulatedEndpoint::set_admission(AdmissionOptions opts) {
  std::lock_guard<std::mutex> lock(adm_mu_);
  admission_ = opts;
}

AdmissionOptions SimulatedEndpoint::admission() const {
  std::lock_guard<std::mutex> lock(adm_mu_);
  return admission_;
}

double SimulatedEndpoint::effective_timeout_ms() const {
  AdmissionOptions opts = admission();
  if (opts.base_timeout_ms <= 0) return 0;
  double mult = profile_.load_multiplier > 0 ? profile_.load_multiplier : 1.0;
  return opts.base_timeout_ms / mult;
}

Result<SimulatedEndpoint::AdmissionSlot> SimulatedEndpoint::Admit(
    const QueryContext& ctx, size_t* queue_depth) {
  double queued_ms = 0;
  std::unique_lock<std::mutex> lock(adm_mu_);
  if (in_flight_ >= admission_.max_in_flight || !adm_queue_.empty()) {
    auto entered = std::chrono::steady_clock::now();
    if (adm_queue_.size() >= admission_.max_queue) {
      if (queue_depth != nullptr) *queue_depth = adm_queue_.size();
      return Status::ResourceExhausted(
          "endpoint at capacity: " + std::to_string(in_flight_) +
          " in flight, " + std::to_string(adm_queue_.size()) + " queued");
    }
    uint64_t ticket = next_ticket_++;
    adm_queue_.push_back(ticket);
    // FIFO: run only as the queue head, and only once a slot frees up.
    // Bounded waits so a deadline/cancel from another thread is observed
    // even without a notification.
    while (adm_queue_.front() != ticket ||
           in_flight_ >= admission_.max_in_flight) {
      if (ctx.ShouldStop()) {
        adm_queue_.erase(
            std::find(adm_queue_.begin(), adm_queue_.end(), ticket));
        lock.unlock();
        adm_cv_.notify_all();
        return ctx.Check("admission-queue");
      }
      adm_cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    adm_queue_.pop_front();
    queued_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - entered)
                    .count();
  }
  ++in_flight_;
  AdmissionSlot slot;
  slot.endpoint_ = this;
  slot.queue_depth_ = adm_queue_.size();
  slot.queued_ms_ = queued_ms;
  if (queue_depth != nullptr) *queue_depth = adm_queue_.size();
  lock.unlock();
  adm_cv_.notify_all();  // another slot may still be free for the next head
  return slot;
}

void SimulatedEndpoint::RecordOutcome(const Status& status) {
  // Endpoint-level outcome counters carry their own metric names; the
  // engine's rdfa_queries_{cancelled,timed_out}_total tick inside
  // Executor::Execute, so a query that trips *while queued* (never
  // executed) is visible here and only here.
  MetricsRegistry& reg = MetricsRegistry::Global();
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      reg.GetCounter("rdfa_endpoint_shed_total",
                     "Queries rejected by admission control")
          .Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      reg.GetCounter("rdfa_endpoint_timed_out_total",
                     "Endpoint queries that tripped their budget")
          .Increment();
      break;
    case StatusCode::kCancelled:
      reg.GetCounter("rdfa_endpoint_cancelled_total",
                     "Endpoint queries cancelled by the caller")
          .Increment();
      break;
    default:
      break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  switch (status.code()) {
    case StatusCode::kResourceExhausted: ++shed_count_; break;
    case StatusCode::kDeadlineExceeded: ++timeout_count_; break;
    case StatusCode::kCancelled: ++cancelled_count_; break;
    default: break;
  }
}

void SimulatedEndpoint::set_trace_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  trace_dir_ = std::move(dir);
}

void SimulatedEndpoint::set_query_log_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  query_log_ = std::make_unique<QueryLog>(path);
}

void SimulatedEndpoint::set_slow_query_capture(std::string dir,
                                               double threshold_ms,
                                               int max_files) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_capturer_ = std::make_unique<SlowQueryCapturer>(std::move(dir),
                                                       threshold_ms, max_files);
}

size_t SimulatedEndpoint::queries_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_served_;
}

size_t SimulatedEndpoint::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_hits_;
}

void SimulatedEndpoint::ClearCache() {
  // Both cache layers drop their entries and local stats; the endpoint's
  // own hit counter resets too, so hit-rate math after a clear is sound.
  answer_cache_->Clear();
  plan_cache_->Clear();
  std::lock_guard<std::mutex> lock(mu_);
  cache_hits_ = 0;
}

Result<QueryResponse> SimulatedEndpoint::Query(const std::string& sparql) {
  return Query(sparql, QueryContext());
}

Result<QueryResponse> SimulatedEndpoint::Query(const std::string& sparql,
                                               QueryContext ctx) {
  // Per-query budget from the profile: combined (min) with any deadline the
  // caller already set; cancel state stays shared with the caller's handle.
  double budget = effective_timeout_ms();
  if (budget > 0) ctx = ctx.ChildWithDeadlineMs(budget);

  QueryResponse resp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_served_;
    // With a trace directory (or slow-query capture) configured, every
    // served query is traced; a tracer the caller attached themselves takes
    // precedence.
    const bool want_tracer =
        !trace_dir_.empty() ||
        (slow_capturer_ != nullptr && slow_capturer_->enabled());
    if (want_tracer && ctx.tracer() == nullptr) {
      ctx.set_tracer(std::make_shared<Tracer>());
    }
  }
  std::shared_ptr<Tracer> tracer = ctx.shared_tracer();

  // Set once the execution graph is known ("heap" / "mmap"); read by the
  // finish lambda below when it builds the structured log record.
  std::string storage_backend;

  // Flushes the per-query trace file, the structured query-log line, and —
  // over the slow-query threshold — a forensic capture file. Called on
  // every exit path, including error-arm returns, so aborted and shed
  // queries still leave a well-formed trace.
  auto finish = [&](const Status& status) {
    std::string trace_path;
    QueryLog* qlog = nullptr;
    SlowQueryCapturer* capturer = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      qlog = query_log_.get();
      capturer = slow_capturer_.get();
      if (tracer != nullptr && !trace_dir_.empty()) {
        trace_path = WriteTraceFile(trace_dir_, "query", trace_seq_++,
                                    tracer->ToChromeJson());
      }
    }
    const bool log_on = qlog != nullptr && qlog->enabled();
    const bool capture_on = capturer != nullptr && capturer->enabled();
    if (log_on || capture_on) {
      QueryLogRecord rec;
      rec.query_hash = HashQueryText(sparql);
      rec.query_head = sparql.substr(0, std::min<size_t>(sparql.size(), 60));
      rec.outcome = OutcomeName(status);
      rec.total_ms = resp.total_ms;
      rec.queued_ms = resp.queued_ms;
      rec.rows = static_cast<int64_t>(resp.table.num_rows());
      rec.cache_hit = resp.cache_hit;
      if (!resp.cache_hit && status.code() != StatusCode::kResourceExhausted) {
        rec.exec_stats_json = resp.exec_stats.ToJson();
        for (char c : resp.exec_stats.join_strategy) {
          if (!rec.join_strategies.empty()) rec.join_strategies += ",";
          switch (c) {
            case 'S': rec.join_strategies += "seed"; break;
            case 'M': rec.join_strategies += "merge"; break;
            case 'H': rec.join_strategies += "hash"; break;
            case 'N': rec.join_strategies += "nested-loop"; break;
            default: rec.join_strategies += c; break;
          }
        }
        rec.dp_used = resp.exec_stats.dp_plans > 0;
        rec.sieve_builds = static_cast<int64_t>(resp.exec_stats.sieve_keys);
        rec.merge_joins = static_cast<int64_t>(resp.exec_stats.merge_joins);
      }
      rec.storage_backend = storage_backend;
      rec.trace_file = trace_path;
      if (tracer != nullptr) rec.profile_json = tracer->ProfileJson();
      if (log_on) qlog->Write(rec);
      if (capture_on) {
        std::string path =
            capturer->MaybeCapture(resp.total_ms, FormatQueryLogLine(rec));
        if (!path.empty()) {
          MetricsRegistry::Global()
              .GetCounter("rdfa_slow_query_captures_total",
                          "Queries captured by the slow-query ring")
              .Increment();
        }
      }
    }
    QueryRegistry::Global().UpdateStageGauges();
  };

  std::optional<TraceSpan> adm_span;
  adm_span.emplace(tracer.get(), "admission-queue");
  Result<AdmissionSlot> admitted = Admit(ctx, &resp.queue_depth);
  adm_span->Arg("queue_depth", static_cast<uint64_t>(resp.queue_depth));
  adm_span->Arg("admitted", admitted.ok());
  adm_span.reset();
  if (!admitted.ok()) {
    // Admission outcomes (shed, expired/cancelled while queued) are part of
    // the service protocol, not transport failures: report them in-band.
    resp.status = admitted.status();
    RecordOutcome(resp.status);
    finish(resp.status);
    return resp;
  }
  AdmissionSlot slot = std::move(admitted).value();
  resp.queued_ms = slot.queued_ms();
  MetricsRegistry::Global()
      .GetHistogram("rdfa_endpoint_queued_ms", Histogram::LatencyBoundsMs(),
                    "Admission-queue wait in milliseconds")
      .Observe(resp.queued_ms);

  // MVCC mode: pin the current snapshot for the whole query. The pin keeps
  // the version alive across later commits; no graph lock is held while the
  // query parses or executes.
  rdf::MvccGraph::Pin pin;
  rdf::Graph* g = graph_;
  if (mvcc_ != nullptr) {
    pin = mvcc_->Snapshot();
    g = pin.graph.get();
  }
  storage_backend = g->mapped() != nullptr ? "mmap" : "heap";

  // Live in-flight registry: visible to `ps`/`kill` and the
  // rdfa_inflight_queries gauges until the handle releases the slot on any
  // exit path. Registration attaches relaxed progress counters to `ctx`, so
  // the executor's stage checks and row counts are sampled lock-free.
  QueryRegistry::Handle inflight = QueryRegistry::Global().Register(
      &ctx, sparql, HashQueryText(sparql), mvcc_ != nullptr ? pin.epoch : 0);
  QueryRegistry::Global().UpdateStageGauges();

  // Stamp-checked cache lookup. Legacy mode stamps with the global
  // generation read *before* execution; MVCC mode validates each entry
  // against FootprintStamp(entry.footprint) on the pinned snapshot, so only
  // a commit that touched one of the entry's predicates invalidates it.
  const bool cache_on = answer_cache_->enabled();
  std::string fingerprint;
  uint64_t query_hash = 0;
  uint64_t generation = 0;
  const auto stamp_fn = [g](const CacheFootprint& fp) {
    return g->FootprintStamp(fp);
  };
  if (cache_on) {
    fingerprint = NormalizeQueryText(sparql);
    // DP shapes both the cached plan's join orders and (via row order) the
    // answer bytes, so DP runs get their own answer and plan cache slots.
    if (use_dp_) fingerprint += "\n#planner-cfg:dp";
    query_hash = HashQueryText(fingerprint);
    generation = g->Generation();
    TraceSpan cache_span(tracer.get(), "cache-lookup");
    cache_span.Arg("generation", generation);
    std::shared_ptr<const sparql::ResultTable> hit =
        mvcc_ != nullptr ? answer_cache_->Get(fingerprint, stamp_fn)
                         : answer_cache_->Get(fingerprint, generation);
    cache_span.Arg("hit", hit != nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      resp.network_ms = SimulatedNetworkMs(sparql);
      if (hit != nullptr) {
        ++cache_hits_;
        resp.table = *hit;
        resp.cache_hit = true;
        resp.exec_ms = 0;
        resp.total_ms = resp.network_ms + resp.queued_ms;
        log_.push_back(MakeLogEntry(sparql, resp));
      }
    }
    if (resp.cache_hit) {
      finish(Status::OK());
      return resp;
    }
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    resp.network_ms = SimulatedNetworkMs(sparql);
  }

  auto start = std::chrono::steady_clock::now();
  // Plan-cache lookup (same generation stamp: the cached BGP orders came
  // from that generation's statistics). A hit skips the parse and replays
  // the recorded join orders; a miss parses and captures them for reuse.
  std::shared_ptr<const sparql::PlanEntry> plan;
  if (cache_on) {
    plan = mvcc_ != nullptr ? plan_cache_->Get(query_hash, stamp_fn)
                            : plan_cache_->Get(query_hash, generation);
  }
  sparql::ParsedQuery parsed_local;
  sparql::PlanEntry fresh_plan;
  const sparql::ParsedQuery* query = nullptr;
  if (plan != nullptr) {
    resp.plan_cache_hit = true;
    query = &plan->ast;
  } else {
    std::optional<TraceSpan> parse_span;
    parse_span.emplace(tracer.get(), "parse");
    Result<sparql::ParsedQuery> parsed = sparql::ParseQuery(sparql);
    parse_span.reset();
    if (!parsed.ok()) {
      finish(parsed.status());
      return parsed.status();
    }
    parsed_local = std::move(parsed).value();
    query = &parsed_local;
  }
  // The fill stamp. MVCC mode stamps with the footprint's per-predicate
  // epoch sum on the pinned snapshot (wildcard when the ablation knob is
  // off); legacy mode keeps the pre-execution global generation.
  CacheFootprint footprint = CacheFootprint::Wildcard();
  uint64_t fill_stamp = generation;
  if (cache_on && mvcc_ != nullptr) {
    if (predicate_invalidation_) {
      footprint =
          plan != nullptr ? plan->footprint : sparql::FootprintOf(*query);
    }
    fill_stamp = g->FootprintStamp(footprint);
  }
  sparql::Executor exec(g);
  exec.set_thread_count(thread_count_);
  exec.set_use_dp(use_dp_);
  exec.set_query_context(ctx);
  if (plan != nullptr) {
    exec.ReplayJoinOrders(&plan->bgp_orders);
  } else if (cache_on) {
    exec.CaptureJoinOrders(&fresh_plan.bgp_orders);
  }
  Result<sparql::ResultTable> table = exec.Execute(*query);
  resp.exec_stats = exec.stats();
  auto end = std::chrono::steady_clock::now();
  resp.exec_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  resp.total_ms = resp.exec_ms * profile_.load_multiplier + resp.network_ms +
                  resp.queued_ms;
  if (!table.ok()) {
    StatusCode code = table.status().code();
    if (code != StatusCode::kDeadlineExceeded &&
        code != StatusCode::kCancelled) {
      finish(table.status());
      return table.status();  // genuine engine failure
    }
    // Budget tripped mid-execution: empty table, partial exec_stats.
    resp.status = table.status();
    RecordOutcome(resp.status);
    {
      std::lock_guard<std::mutex> lock(mu_);
      log_.push_back(MakeLogEntry(sparql, resp));
    }
    finish(resp.status);
    return resp;
  }
  resp.table = std::move(table).value();
  // Fill only on a successful, unambiguous run: error/cancel paths returned
  // above (no poisoned entries), and a generation that moved mid-execution
  // (legacy mode: a contract violation — mutation requires exclusive
  // access — but cheap to defend against) skips the fill rather than
  // stamping a lie. In MVCC mode the pin is immutable, so this check is
  // trivially true; a fill racing a commit is still safe because the stamp
  // travels with the entry — per-predicate epochs only grow, so a stale
  // fill can never alias the head snapshot's stamp.
  if (cache_on && g->Generation() == generation) {
    answer_cache_->Put(fingerprint, fill_stamp, resp.table,
                       resp.table.ApproxBytes(), footprint);
    if (plan == nullptr) {
      fresh_plan.ast = *query;
      fresh_plan.footprint = footprint;
      plan_cache_->Put(query_hash, fill_stamp, std::move(fresh_plan));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back(MakeLogEntry(sparql, resp));
  }
  finish(Status::OK());
  return resp;
}

namespace {
double Percentile(const std::vector<double>& sorted, double q) {
  size_t idx =
      static_cast<size_t>(static_cast<double>(sorted.size() - 1) * q);
  return sorted[idx];
}
}  // namespace

EndpointStats SimulatedEndpoint::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EndpointStats stats;
  stats.count = log_.size();
  stats.shed = shed_count_;
  stats.timed_out = timeout_count_;
  stats.cancelled = cancelled_count_;
  if (log_.empty()) return stats;
  std::vector<double> execs;
  std::vector<double> totals;
  std::vector<double> queued;
  execs.reserve(log_.size());
  totals.reserve(log_.size());
  queued.reserve(log_.size());
  for (const QueryLogEntry& e : log_) {
    stats.mean_exec_ms += e.exec_ms;
    stats.mean_total_ms += e.total_ms;
    stats.max_exec_ms = std::max(stats.max_exec_ms, e.exec_ms);
    execs.push_back(e.exec_ms);
    totals.push_back(e.total_ms);
    queued.push_back(e.queued_ms);
  }
  stats.mean_exec_ms /= static_cast<double>(log_.size());
  stats.mean_total_ms /= static_cast<double>(log_.size());
  std::sort(execs.begin(), execs.end());
  std::sort(totals.begin(), totals.end());
  std::sort(queued.begin(), queued.end());
  stats.p95_exec_ms = Percentile(execs, 0.95);
  stats.p50_total_ms = Percentile(totals, 0.50);
  stats.p99_total_ms = Percentile(totals, 0.99);
  stats.p50_queued_ms = Percentile(queued, 0.50);
  stats.p99_queued_ms = Percentile(queued, 0.99);
  return stats;
}

}  // namespace rdfa::endpoint
