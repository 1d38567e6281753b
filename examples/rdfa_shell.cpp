// Interactive RDF-ANALYTICS shell: a terminal rendition of the Chapter 6
// system demonstration. Drives the full stack — faceted exploration,
// analytics buttons, HIFUN synthesis, SPARQL translation, answer frame,
// nested exploration, keyword search — through line commands.
//
// Run interactively:   ./build/examples/rdfa_shell
// Scripted demo:       ./build/examples/rdfa_shell --demo
// Type `help` for the command list.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/answer_frame.h"
#include "analytics/expressiveness.h"
#include "analytics/session.h"
#include "common/metrics.h"
#include "common/query_context.h"
#include "common/query_log.h"
#include "common/query_registry.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "endpoint/endpoint.h"
#include "fs/facets.h"
#include "rdf/binary_io.h"
#include "rdf/mvcc.h"
#include "rdf/rdfs.h"
#include "rdf/turtle.h"
#include "search/keyword.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/results_io.h"
#include "viz/chart.h"
#include "viz/table_render.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace {

struct Shell {
  // The base graph plus one graph per answer-frame nesting level. Shared
  // pointers so the base slot can alias an MvccGraph snapshot in WAL mode.
  std::vector<std::shared_ptr<rdfa::rdf::Graph>> graphs;
  std::vector<std::unique_ptr<rdfa::analytics::AnalyticsSession>> sessions;
  std::string default_ns;
  int threads = 1;       ///< morsel-parallelism budget for exec
  bool use_dp = true;     ///< planner-v2 DP ordering; --no-dp disables
  double timeout_ms = 0;  ///< per-exec deadline; 0 = none
  bool pending_cancel = false;  ///< `cancel` arms this for the next exec
  bool trace_enabled = false;   ///< `trace on` / --trace-out
  std::string trace_dir;        ///< --trace-out=<dir>: write per-exec traces
  int64_t trace_seq = 0;
  std::shared_ptr<rdfa::Tracer> last_tracer;  ///< tracer of the last exec
  std::unique_ptr<rdfa::QueryLog> query_log;  ///< --query-log=<path>
  bool cache_on = false;   ///< `cache on|off` / --cache-mb=
  size_t cache_mb = 64;    ///< answer-cache byte budget when the cache is on
  std::string slow_dir;    ///< --slow-query-dir=: slow-query capture ring
  double slow_ms = 250;    ///< --slow-query-ms=: capture threshold
  int slow_max = 32;       ///< --slow-query-max=: ring size (files kept)
  rdfa::QueryContext exec_ctx;  ///< the context armed for the current exec
  /// The cache-serving endpoint and the store it serves, which shares
  /// ownership of the graph on screen (declared first: destroyed last).
  std::unique_ptr<rdfa::rdf::MvccGraph> endpoint_store;
  std::unique_ptr<rdfa::endpoint::SimulatedEndpoint> endpoint;
  /// --wal=<path>: the durable MVCC store. The shell's base graph is then a
  /// pinned snapshot of its head; `update`/`walstress` commit through it.
  std::unique_ptr<rdfa::rdf::MvccGraph> mvcc;
  std::string wal_path;

  /// The cache-serving endpoint over the graph on screen, built lazily.
  /// Every change to the graph stack (load/example/infer/explore/pop/
  /// commit) drops it, so cached answers always come from the dataset on
  /// screen.
  rdfa::endpoint::SimulatedEndpoint& Endpoint() {
    if (endpoint == nullptr) {
      endpoint_store = std::make_unique<rdfa::rdf::MvccGraph>(graphs.back());
      endpoint = std::make_unique<rdfa::endpoint::SimulatedEndpoint>(
          endpoint_store.get(), rdfa::endpoint::LatencyProfile::Local(), true);
      rdfa::CacheOptions opts;
      opts.max_bytes = cache_mb << 20;
      opts.max_entries = 4096;
      opts.enabled = cache_mb > 0;
      endpoint->set_cache_options(opts);
      rdfa::endpoint::AdmissionOptions adm;
      adm.base_timeout_ms = 0;  // the shell's own `timeout` command governs
      endpoint->set_admission(adm);
      endpoint->set_thread_count(threads);
      endpoint->set_use_dp(use_dp);
      if (!slow_dir.empty()) {
        endpoint->set_slow_query_capture(slow_dir, slow_ms, slow_max);
      }
    }
    return *endpoint;
  }

  void DropEndpoint() {
    endpoint.reset();
    endpoint_store.reset();
  }

  /// Builds the deadline/cancellation context for one exec and installs it
  /// on the current session.
  void ArmContext() {
    rdfa::QueryContext ctx = timeout_ms > 0
                                 ? rdfa::QueryContext::WithDeadlineMs(timeout_ms)
                                 : rdfa::QueryContext();
    if (pending_cancel) {
      ctx.Cancel();
      pending_cancel = false;
    }
    if (trace_enabled) {
      last_tracer = std::make_shared<rdfa::Tracer>();
      ctx.set_tracer(last_tracer);
    } else {
      last_tracer.reset();
    }
    exec_ctx = ctx;
    session().set_query_context(std::move(ctx));
  }

  /// Writes the last exec's trace file (if armed) and query-log line.
  /// Returns the trace path, empty if none was written.
  std::string FinishExec(const rdfa::Status& status) {
    std::string trace_path;
    if (last_tracer != nullptr && !trace_dir.empty()) {
      trace_path = rdfa::WriteTraceFile(trace_dir, "shell-query", trace_seq++,
                                        last_tracer->ToChromeJson());
      if (trace_path.empty()) {
        std::printf("error: cannot write trace under %s\n", trace_dir.c_str());
      }
    }
    if (query_log != nullptr && query_log->enabled()) {
      const auto& stats = session().last_exec_stats();
      rdfa::QueryLogRecord rec;
      auto sparql = session().BuildSparql();
      if (sparql.ok()) {
        rec.query_hash = rdfa::HashQueryText(sparql.value());
        rec.query_head = sparql.value().substr(
            0, std::min<size_t>(sparql.value().size(), 60));
      }
      rec.outcome = status.ok() ? "ok"
                    : status.code() == rdfa::StatusCode::kCancelled
                        ? "cancelled"
                    : status.code() == rdfa::StatusCode::kDeadlineExceeded
                        ? "timed_out"
                        : "error";
      rec.total_ms = stats.total_ms;
      rec.rows = static_cast<int64_t>(session().answer().table().num_rows());
      rec.exec_stats_json = stats.ToJson();
      rec.trace_file = trace_path;
      query_log->Write(rec);
    }
    return trace_path;
  }

  rdfa::analytics::AnalyticsSession& session() { return *sessions.back(); }
  rdfa::rdf::Graph& graph() { return *graphs.back(); }

  std::string Resolve(const std::string& name) const {
    if (name.find("://") != std::string::npos || name.rfind("urn:", 0) == 0) {
      return name;
    }
    return default_ns + name;
  }

  std::vector<rdfa::fs::PropRef> ResolvePath(const std::string& path) const {
    std::vector<rdfa::fs::PropRef> out;
    for (const std::string& part : rdfa::SplitString(path, '/')) {
      if (!part.empty() && part[0] == '^') {
        out.push_back({Resolve(part.substr(1)), true});
      } else {
        out.push_back({Resolve(part), false});
      }
    }
    return out;
  }

  std::vector<std::string> ResolvePlainPath(const std::string& path) const {
    std::vector<std::string> out;
    for (const std::string& part : rdfa::SplitString(path, '/')) {
      out.push_back(Resolve(part));
    }
    return out;
  }

  /// Pushes `s` as the top session, with the shell's threads and DP setting.
  void PushSession(std::unique_ptr<rdfa::analytics::AnalyticsSession> s) {
    s->set_thread_count(threads);
    s->set_use_dp(use_dp);
    sessions.push_back(std::move(s));
  }

  void Reset(std::shared_ptr<rdfa::rdf::Graph> g) {
    DropEndpoint();
    graphs.clear();
    sessions.clear();
    graphs.push_back(std::move(g));
    PushSession(
        std::make_unique<rdfa::analytics::AnalyticsSession>(graphs[0].get()));
  }

  /// Re-pins the WAL head after a commit (or at open) and restarts the
  /// session on it. Exploration state does not survive a commit — the new
  /// epoch is a different immutable graph version.
  void RefreshWalHead() {
    rdfa::rdf::MvccGraph::Pin pin = mvcc->Snapshot();
    Reset(pin.graph);
  }

  /// One deterministic line of Graph::Stats(), for crash-recovery diffing.
  std::string KgStatsLine() {
    const rdfa::rdf::GraphStats& s = graph().Stats();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "triples=%llu subjects=%llu predicates=%llu objects=%llu",
                  static_cast<unsigned long long>(s.triples),
                  static_cast<unsigned long long>(s.distinct_subjects),
                  static_cast<unsigned long long>(s.distinct_predicates),
                  static_cast<unsigned long long>(s.distinct_objects));
    return buf;
  }
};

void PrintHelp() {
  std::printf(R"(commands:
  example products|invoices     load a built-in dataset
  load <file>                   load a Turtle file or a binary snapshot
                                (RDFA1/2/3, auto-detected by magic)
  save <file>                   write the current dataset as a compressed
                                RDFA3 snapshot (mmap-able)
  mmap <file>                   open an RDFA3 snapshot without decoding it:
                                queries read the mapped file lazily; the
                                first mutation materializes to heap
  ns <iri>                      set the default namespace for bare names
  infer                         materialize the RDFS closure (not under
                                --wal: the closure would bypass the log)
  show                          render the two-frame GUI (facets + objects)
  click <Class>                 class-based transition
  value <p1/p2/...> <v>         click a value at the end of a property path
  range <p1/...> <min> <max>    numeric range filter ('-' = unbounded)
  buckets <prop> <n>            show a facet's values grouped into intervals
  back                          pop the current state
  keyword <words...>            restart the session from a keyword query
  group <p1/...> [FN]           G button (optional transform, e.g. YEAR)
  agg <p1/...|.> OP[,OP...]     sigma button ('.' = count the items)
  having <op> <value>           restriction on the final answer
  hifun                         show the synthesized HIFUN query
  check                         expressiveness report for the current query
  sparql                        show the translated SPARQL
  explain [sparql]              plan-only JSON: join order, strategies,
                                permutations, cost estimates (no execution);
                                defaults to the session's synthesized query
  explain analyze [sparql]      execute and print plan + nested per-operator
                                profile (wall time, rows, counters) + stats
                                as one JSON line
  ps                            live in-flight queries (id, stage, rows,
                                deadline left, snapshot epoch)
  kill <id>                     cooperatively cancel an in-flight query
  exec                          run the analytic query (fills the AF)
  threads <n>                   parallelism for exec (results identical)
                                (planner flag: --no-dp turns off the
                                planner-v2 DP join ordering)
  timeout <ms>                  deadline for each exec (0 = none); a tripped
                                exec returns DeadlineExceeded, partial stats
  cancel                        cancel the next exec (it fails fast with
                                Cancelled — the cooperative-abort path)
  trace on|off                  per-exec span tracing; with --trace-out=<dir>
                                each exec writes Chrome trace JSON (Perfetto)
  cache on|off|stats            stamp-checked answer + plan cache for
                                exec (re-running an unchanged query is a hit;
                                any mutation invalidates); --cache-mb=<n>
                                sets the byte budget and turns it on
                                (--slow-query-dir=<dir> --slow-query-ms=<t>
                                --slow-query-max=<n>: cached execs slower
                                than t ms dump plan+profile into a bounded
                                ring of n files under dir)
  update <sparql update>        commit a SPARQL update through the WAL
                                (needs --wal=<path>; durable before visible)
  walstress <n> [batch]         n synthetic durable inserts, committed per
                                batch (crash-recovery exercise; needs --wal)
  kgstats                       one deterministic graph-statistics line
                                (crash-recovery diffing)
  metrics                       process metrics, Prometheus text format
  stats                         execution statistics of the last exec
  chart                         bar-chart the answer frame
  json | csv                    export the answer frame (W3C formats)
  explore                       load the AF as a new dataset (nesting)
  pop                           leave the nested dataset
  quit
)");
}

rdfa::hifun::AggOp ParseOp(const std::string& s) {
  std::string u = rdfa::ToUpperAscii(s);
  if (u == "AVG") return rdfa::hifun::AggOp::kAvg;
  if (u == "COUNT") return rdfa::hifun::AggOp::kCount;
  if (u == "MIN") return rdfa::hifun::AggOp::kMin;
  if (u == "MAX") return rdfa::hifun::AggOp::kMax;
  return rdfa::hifun::AggOp::kSum;
}

bool HandleLine(Shell& shell, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty()) return true;
  auto report = [](const rdfa::Status& st) {
    if (!st.ok()) std::printf("error: %s\n", st.ToString().c_str());
    return st.ok();
  };

  if (cmd == "quit" || cmd == "exit") return false;
  if ((cmd == "example" || cmd == "load" || cmd == "mmap" ||
       cmd == "infer") &&
      shell.mvcc != nullptr) {
    std::printf("error: %s is unavailable in --wal mode — the WAL is the "
                "source of truth; mutate with update/walstress\n",
                cmd.c_str());
    return true;
  }
  if (cmd == "help") {
    PrintHelp();
  } else if (cmd == "example") {
    std::string which;
    in >> which;
    auto g = std::make_unique<rdfa::rdf::Graph>();
    if (which == "invoices") {
      rdfa::workload::BuildInvoicesExample(g.get());
      shell.default_ns = rdfa::workload::kInvoiceNs;
    } else {
      rdfa::workload::BuildRunningExample(g.get());
      shell.default_ns = rdfa::workload::kExampleNs;
    }
    std::printf("loaded %zu triples (ns %s)\n", g->size(),
                shell.default_ns.c_str());
    shell.Reset(std::move(g));
  } else if (cmd == "load") {
    std::string path;
    in >> path;
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      std::printf("error: cannot open %s\n", path.c_str());
      return true;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const std::string& bytes = buffer.str();
    auto g = std::make_unique<rdfa::rdf::Graph>();
    // Binary snapshots (any generation) announce themselves with an
    // "RDFA<d>\n" magic; everything else is treated as Turtle.
    if (bytes.rfind("RDFA", 0) == 0) {
      if (report(rdfa::rdf::LoadBinary(bytes, g.get()))) {
        std::printf("loaded %zu triples (binary snapshot)\n", g->size());
        shell.Reset(std::move(g));
      }
    } else {
      rdfa::rdf::PrefixMap prefixes;
      if (report(rdfa::rdf::ParseTurtle(bytes, g.get(), &prefixes))) {
        std::printf("loaded %zu triples\n", g->size());
        shell.Reset(std::move(g));
      }
    }
  } else if (cmd == "save") {
    std::string path;
    in >> path;
    if (path.empty()) {
      std::printf("usage: save <file>\n");
      return true;
    }
    if (report(rdfa::rdf::SaveBinaryFile(shell.graph(), path))) {
      std::printf("saved %zu triples to %s (RDFA3)\n", shell.graph().size(),
                  path.c_str());
    }
  } else if (cmd == "mmap") {
    std::string path;
    in >> path;
    if (path.empty()) {
      std::printf("usage: mmap <file>\n");
      return true;
    }
    auto mapped = rdfa::rdf::OpenMappedSnapshot(path);
    if (!mapped.ok()) {
      std::printf("error: %s\n", mapped.status().ToString().c_str());
      return true;
    }
    std::printf("mapped %zu triples from %s (lazy decode; mutations "
                "materialize to heap)\n",
                mapped.value()->size(), path.c_str());
    shell.Reset(std::move(mapped).value());
  } else if (cmd == "ns") {
    in >> shell.default_ns;
  } else if (cmd == "infer") {
    shell.DropEndpoint();  // its store must never see a version mutate
    std::printf("inferred %zu triples\n",
                rdfa::rdf::MaterializeRdfsClosure(&shell.graph()));
    // Rebuild the top session so the schema view sees the closure; the
    // outer levels stay.
    shell.sessions.pop_back();
    shell.PushSession(std::make_unique<rdfa::analytics::AnalyticsSession>(
        shell.graphs.back().get()));
  } else if (cmd == "show") {
    std::printf("%s", shell.session().fs().RenderText().c_str());
  } else if (cmd == "click") {
    std::string cls;
    in >> cls;
    report(shell.session().fs().ClickClass(shell.Resolve(cls)));
  } else if (cmd == "value") {
    std::string path, value;
    in >> path >> value;
    rdfa::rdf::Term term;
    if (!value.empty() &&
        (std::isdigit(static_cast<unsigned char>(value[0])) ||
         value[0] == '-')) {
      term = rdfa::rdf::Term::Integer(std::strtoll(value.c_str(), nullptr, 10));
    } else {
      term = rdfa::rdf::Term::Iri(shell.Resolve(value));
    }
    report(shell.session().fs().ClickValue(shell.ResolvePath(path), term));
  } else if (cmd == "range") {
    std::string path, lo, hi;
    in >> path >> lo >> hi;
    std::optional<double> min, max;
    if (lo != "-") min = std::strtod(lo.c_str(), nullptr);
    if (hi != "-") max = std::strtod(hi.c_str(), nullptr);
    report(shell.session().fs().ClickRange(shell.ResolvePath(path), min, max));
  } else if (cmd == "buckets") {
    std::string prop;
    size_t n = 5;
    in >> prop >> n;
    auto facet = shell.session().fs().ExpandPath(shell.ResolvePath(prop));
    auto buckets =
        rdfa::fs::BucketNumericFacet(shell.graph(), facet, n == 0 ? 5 : n);
    for (const auto& b : buckets) {
      std::printf("[%g, %g): %zu\n", b.lo, b.hi, b.count);
    }
  } else if (cmd == "back") {
    report(shell.session().fs().Back());
  } else if (cmd == "keyword") {
    std::string rest;
    std::getline(in, rest);
    rdfa::search::KeywordIndex index(shell.graph());
    auto ext = index.SearchAsExtension(rest);
    std::printf("%zu hits\n", ext.size());
    if (!ext.empty()) shell.session().fs().StartFromResults(ext);
  } else if (cmd == "group") {
    std::string path, fn;
    in >> path >> fn;
    rdfa::analytics::GroupingSpec g;
    g.path = shell.ResolvePlainPath(path);
    g.derived_function = rdfa::ToUpperAscii(fn);
    report(shell.session().ClickGroupBy(g));
  } else if (cmd == "agg") {
    std::string path, ops;
    in >> path >> ops;
    rdfa::analytics::MeasureSpec m;
    if (path != ".") m.path = shell.ResolvePlainPath(path);
    for (const std::string& op : rdfa::SplitString(ops, ',')) {
      m.ops.push_back(ParseOp(op));
    }
    report(shell.session().ClickAggregate(m));
  } else if (cmd == "having") {
    std::string op;
    double value = 0;
    in >> op >> value;
    shell.session().SetResultRestriction(op, value);
  } else if (cmd == "hifun") {
    auto q = shell.session().BuildHifunQuery();
    if (q.ok()) std::printf("%s\n", q.value().ToString().c_str());
    else report(q.status());
  } else if (cmd == "check") {
    auto q = shell.session().BuildHifunQuery();
    if (!q.ok()) {
      report(q.status());
      return true;
    }
    auto rep = rdfa::analytics::CheckExpressible(q.value());
    std::printf("expressible: %s (about %d actions)\n",
                rep.expressible ? "yes" : "no", rep.estimated_actions);
    for (const std::string& r : rep.reasons) std::printf("  - %s\n", r.c_str());
  } else if (cmd == "sparql") {
    auto s = shell.session().BuildSparql();
    if (s.ok()) std::printf("%s\n", s.value().c_str());
    else report(s.status());
  } else if (cmd == "explain") {
    // `explain [sparql]` prints the plan the executor would run (no data is
    // touched); `explain analyze [sparql]` executes and prints plan +
    // measured operator profile + ExecStats as one JSON line. With no
    // inline query, the session's synthesized SPARQL is explained.
    std::string rest;
    std::getline(in, rest);
    rest = std::string(rdfa::TrimWhitespace(rest));
    bool analyze = false;
    if (rdfa::ToUpperAscii(rest.substr(0, 7)) == "ANALYZE") {
      analyze = true;
      rest = std::string(rdfa::TrimWhitespace(rest.substr(7)));
    }
    std::string text = rest;
    if (text.empty()) {
      auto s = shell.session().BuildSparql();
      if (!report(s.status())) return true;
      text = s.value();
    }
    auto parsed = rdfa::sparql::ParseQuery(text);
    if (!report(parsed.status())) return true;
    rdfa::sparql::Executor exec(&shell.graph());
    exec.set_thread_count(shell.threads);
    exec.set_use_dp(shell.use_dp);
    std::string plan = exec.ExplainJson(parsed.value());
    if (!analyze) {
      std::printf("%s\n", plan.c_str());
      return true;
    }
    auto tracer = std::make_shared<rdfa::Tracer>();
    rdfa::QueryContext ctx = shell.timeout_ms > 0
        ? rdfa::QueryContext::WithDeadlineMs(shell.timeout_ms)
        : rdfa::QueryContext();
    ctx.set_tracer(tracer);
    exec.set_query_context(std::move(ctx));
    auto result = exec.Execute(parsed.value());
    if (result.ok()) {
      // The serialize stage a served answer would pay, profiled alongside.
      rdfa::TraceSpan span(tracer.get(), "serialize");
      const std::string body = rdfa::sparql::WriteResultsJson(result.value());
      span.Arg("rows", static_cast<uint64_t>(result.value().num_rows()));
      span.Arg("bytes", static_cast<uint64_t>(body.size()));
    }
    std::printf("{\"plan\":%s,\"profile\":%s,\"stats\":%s,\"ok\":%s,"
                "\"rows\":%llu}\n",
                plan.c_str(), tracer->ProfileJson().c_str(),
                exec.stats().ToJson().c_str(), result.ok() ? "true" : "false",
                static_cast<unsigned long long>(
                    result.ok() ? result.value().num_rows() : 0));
    if (!result.ok()) report(result.status());
  } else if (cmd == "ps") {
    auto inflight = rdfa::QueryRegistry::Global().Snapshot();
    rdfa::QueryRegistry::Global().UpdateStageGauges();
    if (inflight.empty()) {
      std::printf("no queries in flight\n");
      return true;
    }
    std::printf("%6s %-14s %10s %10s %10s %6s  %s\n", "id", "stage", "rows",
                "elapsed", "deadline", "epoch", "query");
    for (const auto& q : inflight) {
      std::string deadline =
          std::isfinite(q.deadline_remaining_ms)
              ? std::to_string(static_cast<long long>(q.deadline_remaining_ms)) +
                    "ms"
              : "-";
      std::printf("%6lld %-14s %10llu %8.1fms %10s %6llu  %s\n",
                  static_cast<long long>(q.id),
                  q.stage != nullptr ? q.stage : "-",
                  static_cast<unsigned long long>(q.rows), q.elapsed_ms,
                  deadline.c_str(),
                  static_cast<unsigned long long>(q.snapshot_epoch),
                  q.head.c_str());
    }
  } else if (cmd == "kill") {
    long long id = -1;
    in >> id;
    if (id < 0) {
      std::printf("usage: kill <id>   (ids from ps)\n");
      return true;
    }
    if (rdfa::QueryRegistry::Global().Kill(id)) {
      std::printf("query %lld cancelled (it unwinds at its next check)\n", id);
    } else {
      std::printf("no in-flight query with id %lld\n", id);
    }
  } else if (cmd == "exec" && shell.cache_on) {
    // Cached execution: route the synthesized SPARQL through a local
    // endpoint whose stamp-checked answer/plan caches make repeated
    // queries (unchanged graph) instant — and the result is installed back
    // into the session so chart/json/csv/explore keep working.
    auto sparql = shell.session().BuildSparql();
    if (!report(sparql.status())) return true;
    shell.ArmContext();
    auto resp = shell.Endpoint().Query(sparql.value(), shell.exec_ctx);
    rdfa::Status outcome = resp.ok() ? resp.value().status : resp.status();
    if (outcome.ok()) {
      shell.session().InstallAnswer(
          rdfa::analytics::AnswerFrame(resp.value().table));
      std::printf("%s", rdfa::viz::RenderTable(resp.value().table).c_str());
      if (resp.value().cache_hit) {
        std::printf("(answer cache hit, %.3f ms)\n", resp.value().total_ms);
      } else if (resp.value().plan_cache_hit) {
        std::printf("(plan cache hit, exec %.3f ms)\n", resp.value().exec_ms);
      }
    } else {
      report(outcome);
    }
    shell.FinishExec(outcome);
  } else if (cmd == "exec") {
    shell.ArmContext();
    auto af = shell.session().Execute();
    if (af.ok()) {
      std::printf("%s",
                  rdfa::viz::RenderTable(af.value().table()).c_str());
    } else {
      report(af.status());
      const auto& stats = shell.session().last_exec_stats();
      if (stats.aborted) {
        std::printf("partial work before the trip: %s\n",
                    stats.Summary().c_str());
      }
    }
    std::string trace_path = shell.FinishExec(af.status());
    if (!trace_path.empty()) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else if (shell.trace_enabled && shell.last_tracer != nullptr) {
      std::printf("trace: %zu spans recorded (use --trace-out=<dir> to "
                  "write files)\n",
                  shell.last_tracer->span_count());
    }
  } else if (cmd == "trace") {
    std::string mode;
    in >> mode;
    if (mode == "on") {
      shell.trace_enabled = true;
      std::printf("tracing on%s\n",
                  shell.trace_dir.empty()
                      ? " (spans counted; --trace-out=<dir> writes files)"
                      : (": files under " + shell.trace_dir).c_str());
    } else if (mode == "off") {
      shell.trace_enabled = false;
      std::printf("tracing off\n");
    } else {
      std::printf("tracing is %s\n", shell.trace_enabled ? "on" : "off");
    }
  } else if (cmd == "cache") {
    std::string mode;
    in >> mode;
    if (mode == "on") {
      if (shell.cache_mb == 0) shell.cache_mb = 64;
      shell.cache_on = true;
      // Rebuild so the budget takes effect even after `cache off`.
      shell.DropEndpoint();
      std::printf("cache on (%zu MB answer budget + plan cache)\n",
                  shell.cache_mb);
    } else if (mode == "off") {
      shell.cache_on = false;
      std::printf("cache off\n");
    } else if (mode == "stats") {
      if (shell.endpoint == nullptr) {
        std::printf("cache has served nothing yet\n");
      } else {
        auto a = shell.endpoint->answer_cache_stats();
        auto p = shell.endpoint->plan_cache_stats();
        std::printf(
            "answer cache: %llu hits / %llu misses (%.0f%% hit rate), "
            "%zu entries, %zu bytes, %llu evictions, %llu invalidations\n",
            static_cast<unsigned long long>(a.hits),
            static_cast<unsigned long long>(a.misses), 100 * a.HitRate(),
            a.entries, a.bytes, static_cast<unsigned long long>(a.evictions),
            static_cast<unsigned long long>(a.invalidations));
        std::printf(
            "plan cache:   %llu hits / %llu misses (%.0f%% hit rate), "
            "%zu entries, %llu invalidations\n",
            static_cast<unsigned long long>(p.hits),
            static_cast<unsigned long long>(p.misses), 100 * p.HitRate(),
            p.entries, static_cast<unsigned long long>(p.invalidations));
      }
    } else {
      std::printf("cache is %s (try cache on|off|stats)\n",
                  shell.cache_on ? "on" : "off");
    }
  } else if (cmd == "update") {
    if (shell.mvcc == nullptr) {
      std::printf("error: update needs --wal=<path>\n");
      return true;
    }
    std::string rest;
    std::getline(in, rest);
    rest = std::string(rdfa::TrimWhitespace(rest));
    if (rest.empty()) {
      std::printf("usage: update <sparql update>\n");
      return true;
    }
    if (!report(shell.mvcc->BufferUpdate(rest))) return true;
    auto epoch = shell.mvcc->Commit();
    if (!report(epoch.status())) return true;
    shell.RefreshWalHead();
    std::printf("committed epoch %llu (%zu triples)\n",
                static_cast<unsigned long long>(epoch.value()),
                shell.graph().size());
  } else if (cmd == "walstress") {
    // Synthetic durable inserts, committed per batch. The CI crash-recovery
    // smoke kills the shell mid-run and checks that reopening the WAL
    // reconstructs a stats-identical graph.
    if (shell.mvcc == nullptr) {
      std::printf("error: walstress needs --wal=<path>\n");
      return true;
    }
    size_t n = 0, batch = 16;
    in >> n >> batch;
    if (batch == 0) batch = 16;
    const std::string ns =
        shell.default_ns.empty() ? "urn:walstress:" : shell.default_ns;
    for (size_t i = 0; i < n; ++i) {
      shell.mvcc->Insert(rdfa::rdf::Term::Iri(ns + "s" + std::to_string(i)),
                         rdfa::rdf::Term::Iri(ns + "walPoke"),
                         rdfa::rdf::Term::Integer(static_cast<int64_t>(i)));
      if (shell.mvcc->pending_ops() >= batch) {
        auto epoch = shell.mvcc->Commit();
        if (!report(epoch.status())) return true;
      }
    }
    auto epoch = shell.mvcc->Commit();
    if (!report(epoch.status())) return true;
    shell.RefreshWalHead();
    std::printf("walstress done: epoch %llu, %zu triples\n",
                static_cast<unsigned long long>(epoch.value()),
                shell.graph().size());
  } else if (cmd == "kgstats") {
    std::printf("%s\n", shell.KgStatsLine().c_str());
  } else if (cmd == "metrics") {
    rdfa::QueryRegistry::Global().UpdateStageGauges();
    std::printf("%s", rdfa::MetricsRegistry::Global().PrometheusText().c_str());
  } else if (cmd == "timeout") {
    double ms = 0;
    in >> ms;
    shell.timeout_ms = ms < 0 ? 0 : ms;
    if (shell.timeout_ms > 0) {
      std::printf("exec deadline set to %g ms\n", shell.timeout_ms);
    } else {
      std::printf("exec deadline cleared\n");
    }
  } else if (cmd == "cancel") {
    shell.pending_cancel = true;
    std::printf("next exec will be cancelled\n");
  } else if (cmd == "threads") {
    int n = 1;
    in >> n;
    shell.threads = n < 1 ? 1 : n;
    for (auto& s : shell.sessions) s->set_thread_count(shell.threads);
    if (shell.endpoint != nullptr) {
      shell.endpoint->set_thread_count(shell.threads);
    }
    std::printf("exec will use %d thread%s\n", shell.threads,
                shell.threads == 1 ? "" : "s");
  } else if (cmd == "stats") {
    std::printf("%s\n", shell.session().last_exec_stats().Summary().c_str());
  } else if (cmd == "chart") {
    const auto& t = shell.session().answer().table();
    if (t.num_columns() < 2) {
      std::printf("run exec first\n");
      return true;
    }
    auto series = rdfa::viz::SeriesFromTable(
        t, t.columns()[0], t.columns()[t.num_columns() - 1]);
    if (series.ok()) {
      std::printf("%s", rdfa::viz::RenderBarChart(series.value()).c_str());
    } else {
      report(series.status());
    }
  } else if (cmd == "json") {
    std::printf("%s\n",
                rdfa::sparql::WriteResultsJson(shell.session().answer().table())
                    .c_str());
  } else if (cmd == "csv") {
    std::printf("%s",
                rdfa::sparql::WriteResultsCsv(shell.session().answer().table())
                    .c_str());
  } else if (cmd == "explore") {
    auto g = std::make_unique<rdfa::rdf::Graph>();
    auto nested = shell.session().ExploreAnswer(g.get());
    if (nested.ok()) {
      shell.DropEndpoint();
      shell.graphs.push_back(std::move(g));
      shell.PushSession(std::move(nested).value());
      std::printf("exploring the answer as a dataset (level %zu)\n",
                  shell.sessions.size() - 1);
    } else {
      report(nested.status());
    }
  } else if (cmd == "pop") {
    if (shell.sessions.size() > 1) {
      shell.DropEndpoint();
      shell.sessions.pop_back();
      shell.graphs.pop_back();
      std::printf("back to level %zu\n", shell.sessions.size() - 1);
    } else {
      std::printf("already at the base dataset\n");
    }
  } else {
    std::printf("unknown command '%s' (try help)\n", cmd.c_str());
  }
  return true;
}

int RunDemo(Shell& shell) {
  const char* script[] = {
      "example products",
      "infer",
      "click Laptop",
      "show",
      "value manufacturer/origin USA",
      "range USBPorts 2 4",
      "group manufacturer",
      "agg price AVG,SUM",
      "hifun",
      "check",
      "sparql",
      "exec",
      "chart",
      "explore",
      "show",
      "pop",
  };
  for (const char* line : script) {
    std::printf("rdfa> %s\n", line);
    if (!HandleLine(shell, line)) break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      int n = std::atoi(arg.c_str() + 10);
      shell.threads = n < 1 ? 1 : n;
    } else if (arg == "--no-dp") {
      shell.use_dp = false;
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      double ms = std::strtod(arg.c_str() + 13, nullptr);
      shell.timeout_ms = ms < 0 ? 0 : ms;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      shell.trace_dir = arg.substr(12);
      shell.trace_enabled = !shell.trace_dir.empty();
    } else if (arg.rfind("--cache-mb=", 0) == 0) {
      long mb = std::atol(arg.c_str() + 11);
      shell.cache_mb = mb < 0 ? 0 : static_cast<size_t>(mb);
      shell.cache_on = shell.cache_mb > 0;
    } else if (arg.rfind("--slow-query-dir=", 0) == 0) {
      shell.slow_dir = arg.substr(17);
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      double ms = std::strtod(arg.c_str() + 16, nullptr);
      shell.slow_ms = ms < 0 ? 0 : ms;
    } else if (arg.rfind("--slow-query-max=", 0) == 0) {
      int n = std::atoi(arg.c_str() + 17);
      shell.slow_max = n < 1 ? 1 : n;
    } else if (arg.rfind("--query-log=", 0) == 0) {
      std::string path = arg.substr(12);
      if (!path.empty()) {
        shell.query_log = std::make_unique<rdfa::QueryLog>(path);
      }
    } else if (arg.rfind("--wal=", 0) == 0) {
      shell.wal_path = arg.substr(6);
    }
  }
  if (!shell.wal_path.empty()) {
    // Durable mode: replay the write-ahead log (tolerating a torn tail from
    // a crash mid-append) instead of reparsing any source data.
    rdfa::rdf::MvccGraph::Options opts;
    opts.wal_path = shell.wal_path;
    opts.update_fn = rdfa::sparql::ApplyUpdate;
    auto opened = rdfa::rdf::MvccGraph::Open(std::move(opts));
    if (!opened.ok()) {
      std::fprintf(stderr, "error: cannot open WAL %s: %s\n",
                   shell.wal_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    shell.mvcc = std::move(opened).value();
    const auto info = shell.mvcc->open_info();
    shell.RefreshWalHead();
    std::printf("wal: %s — replayed %llu records (%llu torn bytes "
                "truncated), %zu triples\n",
                shell.wal_path.c_str(),
                static_cast<unsigned long long>(info.replayed_records),
                static_cast<unsigned long long>(info.truncated_bytes),
                shell.graph().size());
  } else {
    shell.Reset(std::make_unique<rdfa::rdf::Graph>());
  }
  if (demo) return RunDemo(shell);

  std::printf("RDF-ANALYTICS shell — type 'help' for commands, "
              "'example products' to begin.\n");
  std::string line;
  while (true) {
    std::printf("rdfa> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!HandleLine(shell, line)) break;
  }
  return 0;
}
