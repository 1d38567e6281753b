#include "sparql/bgp.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "sparql/planner.h"

namespace rdfa::sparql {

using rdf::kNoTermId;
using rdf::TermId;

CompiledPattern CompileTriple(const TriplePattern& tp, VarTable* vars,
                              const rdf::Graph& graph) {
  CompiledPattern cp;
  auto resolve = [&](const NodePattern& n, int* var, TermId* id) {
    if (n.is_var) {
      *var = vars->IdOf(n.var);
    } else {
      *id = graph.terms().Find(n.term);
      if (*id == kNoTermId) cp.impossible = true;
    }
  };
  resolve(tp.s, &cp.s_var, &cp.s_id);
  resolve(tp.p, &cp.p_var, &cp.p_id);
  resolve(tp.o, &cp.o_var, &cp.o_id);
  return cp;
}

namespace {

// Cancellation poll interval inside a scan, in enumerated index rows: small
// enough that a 1ms deadline trips promptly, large enough that the atomic
// loads vanish in the scan cost.
constexpr size_t kCheckEveryRows = 512;

// Minimum input-row count before the adaptive strategy considers a hash
// build: below this a build cannot amortize over enough probes.
constexpr size_t kHashMinRows = 64;
// The hash build must be this many times cheaper than the projected NLJ
// scan work before it is chosen — conservative, so the hash path strictly
// reduces index rows enumerated.
constexpr double kHashBuildFactor = 2.0;

}  // namespace

// Calibrated per-row cardinality estimate: the constant-narrowed match
// count, divided by the distinct count of each bound-variable lane within
// that population (predicate-local when the predicate is constant — i.e.
// the bound lane divides by the predicate's distinct subjects/objects, so
// the result is the predicate's average fanout). Uniformity assumption, but
// per-predicate rather than one flat constant.
double CalibratedRowEstimate(const rdf::Graph& graph, const CompiledPattern& p,
                             bool s_bound, bool p_bound, bool o_bound) {
  TermId s = p.s_var < 0 ? p.s_id : kNoTermId;
  TermId pp = p.p_var < 0 ? p.p_id : kNoTermId;
  TermId o = p.o_var < 0 ? p.o_id : kNoTermId;
  double est = static_cast<double>(graph.EstimateMatch(s, pp, o));
  const rdf::GraphStats& gs = graph.Stats();
  const rdf::PredicateStats* ps =
      pp != kNoTermId ? gs.ForPredicate(pp) : nullptr;
  auto narrow = [&est](uint64_t distinct) {
    if (distinct > 1) est /= static_cast<double>(distinct);
  };
  if (s_bound) narrow(ps != nullptr ? ps->distinct_subjects
                                    : gs.distinct_subjects);
  if (p_bound) narrow(gs.distinct_predicates);
  if (o_bound) narrow(ps != nullptr ? ps->distinct_objects
                                    : gs.distinct_objects);
  return est;
}

namespace {

double Score(const rdf::Graph& graph, const CompiledPattern& p,
             const std::set<int>& bound) {
  return CalibratedRowEstimate(
      graph, p, p.s_var >= 0 && bound.count(p.s_var) > 0,
      p.p_var >= 0 && bound.count(p.p_var) > 0,
      p.o_var >= 0 && bound.count(p.o_var) > 0);
}

void MarkBound(const CompiledPattern& p, std::set<int>* bound) {
  if (p.s_var >= 0) bound->insert(p.s_var);
  if (p.p_var >= 0) bound->insert(p.p_var);
  if (p.o_var >= 0) bound->insert(p.o_var);
}

// Greedy selectivity ordering: repeatedly pick the cheapest unused pattern
// given the variables bound so far. Right after a pick newly binds a
// variable, that variable's remaining constant-predicate patterns estimated
// at <= 1 row each come next, cheapest first: they are single-valued or
// filtering, so they never multiply rows, and kept together they form the
// run one star step executes (ExecuteStarStep). Returns indexes into
// `patterns` in execution order. Shared by JoinBgp and the plan-only
// EXPLAIN path.
std::vector<int> GreedyOrder(const rdf::Graph& graph,
                             const std::vector<CompiledPattern>& patterns,
                             std::set<int> bound) {
  std::vector<int> order;
  order.reserve(patterns.size());
  std::vector<bool> used(patterns.size(), false);
  // The cheapest unused pattern `eligible` admits, or -1.
  auto cheapest = [&](auto&& eligible, double limit) {
    double best = -1;
    int best_i = -1;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i] || !eligible(patterns[i])) continue;
      double s = Score(graph, patterns[i], bound);
      if (s <= limit && (best < 0 || s < best)) {
        best = s;
        best_i = static_cast<int>(i);
      }
    }
    return best_i;
  };
  auto take = [&](int i) {
    used[i] = true;
    order.push_back(i);
    MarkBound(patterns[i], &bound);
  };
  while (order.size() < patterns.size()) {
    const int pick = cheapest([](const CompiledPattern&) { return true; },
                              std::numeric_limits<double>::infinity());
    const CompiledPattern& p = patterns[pick];
    std::vector<int> subjects;
    for (int var : {p.s_var, p.o_var}) {
      if (var >= 0 && bound.count(var) == 0) subjects.push_back(var);
    }
    take(pick);
    for (int subject : subjects) {
      auto star = [subject](const CompiledPattern& q) {
        return q.s_var == subject && q.p_var < 0;
      };
      for (int i; (i = cheapest(star, 1.0)) >= 0;) take(i);
    }
  }
  return order;
}

// Binds the lanes of triple `t` into `row` under pattern `p`, re-checking
// same-variable positions (e.g. ?x p ?x). Returns false on a conflict,
// leaving `row` partly bound.
inline bool BindTriple(const CompiledPattern& p, const rdf::TripleId& t,
                       std::span<TermId> row) {
  auto bind = [row](int var, TermId value) {
    if (var < 0) return true;
    TermId& slot = row[var];
    if (slot != kNoTermId && slot != value) return false;
    slot = value;
    return true;
  };
  return bind(p.s_var, t.s) && bind(p.p_var, t.p) && bind(p.o_var, t.o);
}

// Appends `row` extended by each of `matches`, in order, to `*out`; an
// extension that conflicts with the row is dropped again.
void ExtendRowBy(const CompiledPattern& p, SolutionRow row,
                 std::span<const rdf::TripleId> matches, SolutionTable* out) {
  for (const rdf::TripleId& t : matches) {
    if (!BindTriple(p, t, out->AppendRow(row))) out->PopRow();
  }
}

// The (s, p, o) a probe of `p` under `row` looks up: the constants and the
// row's bindings, kNoTermId on a free lane.
inline rdf::TripleId ProbeKey(const CompiledPattern& p, SolutionRow row) {
  return {p.s_var < 0 ? p.s_id : row[p.s_var],
          p.p_var < 0 ? p.p_id : row[p.p_var],
          p.o_var < 0 ? p.o_id : row[p.o_var]};
}

// A scan's matches, collected with the cheap stop flag polled every
// kCheckEveryRows rows enumerated (counted across every scan collected).
// Once the flag trips, scans drain without collecting; the caller turns
// the trip into a typed Status and discards its partial output.
struct ScanMatches {
  void Add(const rdf::TripleId& t) { AddTo(t, &triples); }

  // Adds `t` to `*out`, counting it against the stop flag's poll.
  void AddTo(const rdf::TripleId& t, std::vector<rdf::TripleId>* out) {
    if (stopped) return;
    ++scanned;
    if (ctx != nullptr && scanned % kCheckEveryRows == 0 &&
        ctx->ShouldStop()) {
      stopped = true;
      return;
    }
    out->push_back(t);
  }

  // Replaces the collected triples with the matches of probe key `key`.
  void Probe(rdf::Graph::ProbeCursor* cursor, const rdf::TripleId& key) {
    triples.clear();
    cursor->ForEachMatch(key.s, key.p, key.o,
                         [this](const rdf::TripleId& t) { Add(t); });
  }

  const QueryContext* ctx;
  std::vector<rdf::TripleId> triples = {};
  size_t scanned = 0;
  bool stopped = false;
};

// Extends every row in [begin, end) of `rows` through `p`, appending the
// results (in row order) to `*out`. Returns the number of index rows
// enumerated. One probe cursor serves the range: input sorted on the probed
// lane (a seed scan's order) gallops from probe to probe. With `reuse`, a
// row whose probe key equals the previous row's replays that row's matches
// instead of probing again, so sorted input decodes each repeated join key
// once; the kNestedLoop oracle probes every row.
size_t ExtendRange(const rdf::Graph& graph, const CompiledPattern& p,
                   bool reuse, const SolutionTable& rows, size_t begin,
                   size_t end, const QueryContext* ctx, SolutionTable* out) {
  rdf::Graph::ProbeCursor cursor(graph);
  ScanMatches scan{ctx};
  rdf::TripleId last{};
  for (size_t r = begin; r < end && !scan.stopped; ++r) {
    const rdf::TripleId key = ProbeKey(p, rows.row(r));
    if (!reuse || r == begin || key != last) {
      scan.Probe(&cursor, key);
      last = key;
    } else if (ctx != nullptr && (r - begin) % kCheckEveryRows == 0 &&
               ctx->ShouldStop()) {
      break;  // replays enumerate nothing; poll the stop flag by rows
    }
    ExtendRowBy(p, rows.row(r), scan.triples, out);
  }
  return scan.scanned;
}

// ---- order-preserving hash join ------------------------------------------
//
// Build once: scan the pattern's index range (constants narrowed) and
// bucket every triple by its join-key lane value(s). Probe many: each input
// row looks its key up and extends through the bucket entries in stored
// order. Byte-identity with the per-row NLJ follows from two facts: (a) the
// probe perm — ChoosePerm over constants plus key lanes — puts all of them
// in a complete prefix, so a row's NLJ range holds exactly its matches in
// that perm's sort order; (b) the build scans a permutation whose free-lane
// order agrees with the probe perm (the probe perm itself when two or more
// lanes are free, any perm — so the cheapest constant-prefixed one — when
// at most one lane is free, since a single free lane sorts identically in
// every permutation). Restricting one sorted scan to a bucket preserves
// relative order, so bucket order == per-row NLJ range order.

// Per-pattern hash strategy decision, taken against the boundness of the
// first input row (rows that deviate fall back to a per-row index scan).
struct HashPlan {
  bool use_hash = false;
  bool key_s = false, key_p = false, key_o = false;  // bound-variable lanes
  rdf::Graph::Perm build_perm = rdf::Graph::kPermSPO;
  size_t build_width = 0;  // index rows the build scan will enumerate
};

HashPlan PlanHash(const rdf::Graph& graph, const CompiledPattern& p,
                  const SolutionTable& rows, JoinStrategy strategy) {
  HashPlan plan;
  if (strategy == JoinStrategy::kNestedLoop || rows.empty()) return plan;
  const SolutionRow first = rows.row(0);
  plan.key_s = p.s_var >= 0 && first[p.s_var] != kNoTermId;
  plan.key_p = p.p_var >= 0 && first[p.p_var] != kNoTermId;
  plan.key_o = p.o_var >= 0 && first[p.o_var] != kNoTermId;
  // No bound join variable -> no hash key; nothing to probe with.
  if (!plan.key_s && !plan.key_p && !plan.key_o) return plan;

  const bool s_const = p.s_var < 0, p_const = p.p_var < 0,
             o_const = p.o_var < 0;
  const int free_lanes = (p.s_var >= 0 && !plan.key_s ? 1 : 0) +
                         (p.p_var >= 0 && !plan.key_p ? 1 : 0) +
                         (p.o_var >= 0 && !plan.key_o ? 1 : 0);
  // See the order argument above: with >= 2 free lanes the build must scan
  // the probe perm itself; with <= 1 it may scan the constant-prefixed perm.
  if (free_lanes >= 2) {
    plan.build_perm = rdf::Graph::ChoosePerm(
        s_const || plan.key_s, p_const || plan.key_p, o_const || plan.key_o);
  } else {
    plan.build_perm = rdf::Graph::ChoosePerm(s_const, p_const, o_const);
  }
  plan.build_width = graph.EstimateInPerm(
      plan.build_perm, s_const ? p.s_id : kNoTermId,
      p_const ? p.p_id : kNoTermId, o_const ? p.o_id : kNoTermId);

  // Hash only when the one-off build is decisively cheaper than the per-row
  // scans it replaces.
  if (rows.size() < kHashMinRows) return plan;
  const double per_row = CalibratedRowEstimate(graph, p, plan.key_s,
                                               plan.key_p, plan.key_o);
  plan.use_hash = static_cast<double>(plan.build_width) * kHashBuildFactor <=
                  static_cast<double>(rows.size()) * per_row;
  return plan;
}

// Join key: the key-lane values in (s, p, o) order, kNoTermId elsewhere.
struct HashKey {
  TermId k[3];
  friend bool operator==(const HashKey& x, const HashKey& y) {
    return x.k[0] == y.k[0] && x.k[1] == y.k[1] && x.k[2] == y.k[2];
  }
};

struct HashKeyHash {
  size_t operator()(const HashKey& key) const {
    uint64_t h = static_cast<uint64_t>(key.k[0]) * 0x9E3779B97F4A7C15ull;
    h ^= static_cast<uint64_t>(key.k[1]) * 0xC2B2AE3D27D4EB4Full + (h << 6);
    h ^= static_cast<uint64_t>(key.k[2]) * 0x165667B19E3779F9ull + (h >> 3);
    return static_cast<size_t>(h);
  }
};

using HashTable =
    std::unordered_map<HashKey, std::vector<rdf::TripleId>, HashKeyHash>;

// Builds the bucket table by one scan of `plan.build_perm`. Bucket vectors
// keep scan order (the order-preservation invariant). The context check is
// the *counted* kind — the build is a real stage that a deadline must be
// able to trip deterministically.
Status BuildHashTable(const rdf::Graph& graph, const CompiledPattern& p,
                      const HashPlan& plan, const QueryContext* ctx,
                      HashTable* table, size_t* scanned) {
  Status st = Status::OK();
  graph.ForEachInPerm(
      plan.build_perm, p.s_var < 0 ? p.s_id : kNoTermId,
      p.p_var < 0 ? p.p_id : kNoTermId, p.o_var < 0 ? p.o_id : kNoTermId,
      [&](const rdf::TripleId& t) {
        if (!st.ok()) return;  // drain the scan without inserting
        ++*scanned;
        if (ctx != nullptr && *scanned % kCheckEveryRows == 0) {
          Status check = ctx->Check("hash-build");
          if (!check.ok()) {
            st = check;
            return;
          }
        }
        HashKey key{{plan.key_s ? t.s : kNoTermId,
                     plan.key_p ? t.p : kNoTermId,
                     plan.key_o ? t.o : kNoTermId}};
        (*table)[key].push_back(t);
      });
  return st;
}

// Probes rows [begin, end) against `table`, appending extensions in row
// order. Rows whose boundness deviates from the planned key lanes (possible
// after OPTIONAL / UNION upstream) fall back to a per-row index scan, which
// enumerates that row's matches in the identical order; the fallbacks share
// one probe cursor per call (so one per morsel). Returns the number of
// index rows enumerated by fallbacks; bucket entries probed are counted
// into *probe_hits.
size_t ProbeHashRange(const rdf::Graph& graph, const CompiledPattern& p,
                      const HashPlan& plan, const HashTable& table,
                      const SolutionTable& rows, size_t begin, size_t end,
                      const QueryContext* ctx, SolutionTable* out,
                      size_t* probe_hits) {
  rdf::Graph::ProbeCursor cursor(graph);
  ScanMatches fallback{ctx};
  for (size_t r = begin; r < end && !fallback.stopped; ++r) {
    const SolutionRow row = rows.row(r);
    const bool s_bound = p.s_var >= 0 && row[p.s_var] != kNoTermId;
    const bool p_bound = p.p_var >= 0 && row[p.p_var] != kNoTermId;
    const bool o_bound = p.o_var >= 0 && row[p.o_var] != kNoTermId;
    if (s_bound == plan.key_s && p_bound == plan.key_p &&
        o_bound == plan.key_o) {
      HashKey key{{plan.key_s ? row[p.s_var] : kNoTermId,
                   plan.key_p ? row[p.p_var] : kNoTermId,
                   plan.key_o ? row[p.o_var] : kNoTermId}};
      auto it = table.find(key);
      if (it == table.end()) continue;
      const std::vector<rdf::TripleId>& bucket = it->second;
      size_t hits = 0;
      for (; hits < bucket.size(); ++hits) {
        ++*probe_hits;
        if (ctx != nullptr && *probe_hits % kCheckEveryRows == 0 &&
            ctx->ShouldStop()) {
          fallback.stopped = true;
          break;
        }
      }
      ExtendRowBy(p, row, {bucket.data(), hits}, out);
    } else {
      fallback.Probe(&cursor, ProbeKey(p, row));
      ExtendRowBy(p, row, fallback.triples, out);
    }
  }
  return fallback.scanned;
}

// The tracer of the query a join runs for; null when untraced.
Tracer* TracerOf(const JoinOptions& opts) {
  return opts.ctx != nullptr ? opts.ctx->tracer() : nullptr;
}

// One morsel's share of a join step; RunStepMorsels folds the parts, in
// morsel order, into the whole step's.
struct StepPart {
  SolutionTable rows;
  size_t scanned = 0;     ///< index rows enumerated
  size_t probe_hits = 0;  ///< hash bucket entries probed
  /// Star step: per run pattern, the index rows its NLJ step would
  /// enumerate, up to the last pattern an NLJ step would reach (the steps
  /// after an empty output never run).
  std::vector<size_t> pattern_scanned;
  Status status = Status::OK();  ///< a counted check that tripped inside
};

// Runs `kernel(lo, hi, &part)` over [0, n) by the shared morsel policy, each
// part's rows `width` slots wide, and concatenates the parts in morsel
// order, which keeps the step's output byte-identical to a serial run's. A
// morsel that starts after the context tripped does no work; the step's
// closing check reports the trip.
template <typename Kernel>
StepPart RunStepMorsels(size_t n, size_t width, const JoinOptions& opts,
                        const Kernel& kernel) {
  std::vector<StepPart> parts = RunMorsels<StepPart>(
      n, opts.threads, kMinMorselItems,
      [&](size_t lo, size_t hi, StepPart* part) {
        part->rows = SolutionTable(width);
        part->rows.Reserve(hi - lo);
        if (opts.ctx == nullptr || !opts.ctx->ShouldStop()) {
          kernel(lo, hi, part);
        }
      });
  if (parts.size() == 1) return std::move(parts.front());
  if (opts.stats != nullptr) opts.stats->morsel_count += parts.size();
  StepPart all;
  all.rows = SolutionTable(width);
  size_t total = 0;
  for (const StepPart& part : parts) total += part.rows.size();
  all.rows.Reserve(total);
  for (StepPart& part : parts) {
    all.scanned += part.scanned;
    all.probe_hits += part.probe_hits;
    all.pattern_scanned.resize(
        std::max(all.pattern_scanned.size(), part.pattern_scanned.size()));
    for (size_t j = 0; j < part.pattern_scanned.size(); ++j) {
      all.pattern_scanned[j] += part.pattern_scanned[j];
    }
    if (all.status.ok()) all.status = part.status;
    all.rows.Append(part.rows);
  }
  return all;
}

// Comma-separated decimal list, for a span argument.
template <typename T>
std::string JoinList(std::span<const T> values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out;
}

// The frame every join step runs in: the counted "bgp-join" check before
// and after it, its span, its ExecStats rows (one per pattern in `sources`,
// the step's source patterns) and publishing its rows. `body(&span)` runs
// the step and returns its whole output. A trip inside the step surfaces
// after the stats are recorded; the closing check keeps an output a stop
// flag left partial from reaching the next step.
template <typename Body>
Status JoinStep(char strategy, std::span<const int> sources,
                const JoinOptions& opts, SolutionTable* rows,
                const Body& body) {
  if (opts.ctx != nullptr) RDFA_RETURN_NOT_OK(opts.ctx->Check("bgp-join"));
  TraceSpan span(TracerOf(opts), "bgp-join");
  if (sources.size() == 1) {
    span.Arg("pattern", static_cast<int64_t>(sources[0]));
  } else {
    span.Arg("patterns", JoinList(sources));
  }
  span.Arg("input_rows", static_cast<uint64_t>(rows->size()));
  StepPart out = body(&span);
  // A star step reports the patterns its NLJ steps would have reached.
  const size_t steps = sources.size() == 1 ? 1 : out.pattern_scanned.size();
  if (sources.size() > 1) {
    out.scanned = std::accumulate(out.pattern_scanned.begin(),
                                  out.pattern_scanned.end(), size_t{0});
    span.Arg("pattern_rows", JoinList<size_t>(out.pattern_scanned));
  }
  if (opts.stats != nullptr) {
    opts.stats->bgp_patterns += steps;
    for (size_t j = 0; j < steps; ++j) {
      opts.stats->rows_scanned.push_back(
          sources.size() == 1 ? out.scanned : out.pattern_scanned[j]);
      opts.stats->join_order.push_back(sources[j]);
      opts.stats->join_strategy.push_back(strategy);
    }
  }
  span.Arg("rows_scanned", static_cast<uint64_t>(out.scanned));
  span.Arg("output_rows", static_cast<uint64_t>(out.rows.size()));
  RDFA_RETURN_NOT_OK(out.status);
  if (opts.ctx != nullptr) RDFA_RETURN_NOT_OK(opts.ctx->Check("bgp-join"));
  if (opts.ctx != nullptr) opts.ctx->AddProgressRows(out.rows.size());
  *rows = std::move(out.rows);
  return Status::OK();
}

// The seed kernel, for a step with one input row: the row's matches are
// the items, so even the first pattern of a query splits into morsels.
// Extends `row` by each match in order.
StepPart ExtendSeed(const CompiledPattern& p, SolutionRow row,
                    const ScanMatches& seed, const JoinOptions& opts) {
  StepPart step = RunStepMorsels(
      seed.triples.size(), row.size(), opts,
      [&](size_t lo, size_t hi, StepPart* part) {
        for (size_t i = lo; i < hi; ++i) {
          if (opts.ctx != nullptr && (i - lo + 1) % kCheckEveryRows == 0 &&
              opts.ctx->ShouldStop()) {
            return;  // abandon this morsel; the step reports the trip
          }
          ExtendRowBy(p, row, {&seed.triples[i], 1}, &part->rows);
        }
      });
  step.scanned = seed.scanned;
  return step;
}

// Executes one pattern step as a hash join or an NLJ, whichever PlanHash
// picks. Replaces *rows with the extended set; empty output short-circuits
// in the caller.
Status ExecuteAdaptiveStep(const rdf::Graph& graph, const CompiledPattern& p,
                           int source_pattern, const JoinOptions& opts,
                           SolutionTable* rows) {
  const HashPlan plan = PlanHash(graph, p, *rows, opts.strategy);
  return JoinStep(
      plan.use_hash ? 'H' : 'N', {&source_pattern, 1}, opts, rows,
      [&](TraceSpan* span) {
        StepPart step;
        if (plan.use_hash) {
          HashTable table;
          size_t build_scanned = 0;
          Status build_status = Status::OK();
          {
            TraceSpan build_span(TracerOf(opts), "hash-build");
            build_status = BuildHashTable(graph, p, plan, opts.ctx, &table,
                                          &build_scanned);
            build_span.Arg("build_rows",
                           static_cast<uint64_t>(build_scanned));
          }
          if (opts.stats != nullptr) {
            ++opts.stats->hash_builds;
            opts.stats->hash_build_rows += build_scanned;
          }
          if (build_status.ok()) {
            step = RunStepMorsels(
                rows->size(), rows->width(), opts,
                [&](size_t lo, size_t hi, StepPart* part) {
                  part->scanned =
                      ProbeHashRange(graph, p, plan, table, *rows, lo, hi,
                                     opts.ctx, &part->rows, &part->probe_hits);
                });
            if (opts.stats != nullptr) {
              opts.stats->hash_probe_hits += step.probe_hits;
            }
            span->Arg("probe_hits", static_cast<uint64_t>(step.probe_hits));
          }
          step.scanned += build_scanned;
          step.status = build_status;
        } else if (rows->size() == 1) {
          rdf::Graph::ProbeCursor cursor(graph);
          ScanMatches seed{opts.ctx};
          seed.Probe(&cursor, ProbeKey(p, rows->row(0)));
          step = ExtendSeed(p, rows->row(0), seed, opts);
        } else {
          step = RunStepMorsels(
              rows->size(), rows->width(), opts,
              [&](size_t lo, size_t hi, StepPart* part) {
                part->scanned = ExtendRange(
                    graph, p, opts.strategy == JoinStrategy::kAdaptive, *rows,
                    lo, hi, opts.ctx, &part->rows);
              });
        }
        span->Arg("strategy", plan.use_hash ? "hash" : "nested-loop");
        return step;
      });
}

// ---- star step -------------------------------------------------------------
//
// A star run is a consecutive run of >= 2 patterns `?s <p> ?o` or
// `?s <p> <o>` on one subject variable that every input row binds, each
// with a constant predicate and each object a constant or a variable that
// no input row binds and no other pattern of the run binds. A pattern's
// matches then depend on the row's ?s alone, so the run's NLJ steps emit,
// per input row, the cross product of the patterns' match lists in pattern
// order, last pattern fastest, each list in SPO order. The star step finds
// every pattern's matches in one pass per row and appends exactly that
// cross product, so it is byte-identical to the NLJ steps in the same join
// order. GreedyOrder
// puts a subject's single-valued and filtering patterns next to each other
// so such runs form.

// End (exclusive) of the star run that starts at `begin`, or `begin` when
// fewer than two patterns qualify. kNestedLoop (the oracle) never runs one,
// and a pattern PlanHash would hash stays its own step.
size_t StarRunEnd(const rdf::Graph& graph,
                  const std::vector<CompiledPattern>& patterns, size_t begin,
                  const JoinOptions& opts, const SolutionTable& rows) {
  const int subject = patterns[begin].s_var;
  if (opts.strategy != JoinStrategy::kAdaptive || rows.empty() ||
      subject < 0) {
    return begin;
  }
  std::vector<int> objects;  // the object variables of the run so far
  size_t end = begin;
  for (; end < patterns.size(); ++end) {
    const CompiledPattern& p = patterns[end];
    if (p.s_var != subject || p.p_var >= 0 || p.o_var == subject ||
        std::find(objects.begin(), objects.end(), p.o_var) != objects.end() ||
        PlanHash(graph, p, rows, opts.strategy).use_hash) {
      break;
    }
    if (p.o_var >= 0) objects.push_back(p.o_var);
  }
  // Every row must bind the subject and none an object variable; a row
  // that does cuts the run before that variable's pattern.
  for (size_t r = 0; r < rows.size() && end - begin >= 2; ++r) {
    const SolutionRow row = rows.row(r);
    if (row[subject] == kNoTermId) return begin;
    for (size_t j = begin; j < end; ++j) {
      const int o = patterns[j].o_var;
      if (o >= 0 && row[o] != kNoTermId) end = j;
    }
  }
  return end - begin >= 2 ? end : begin;
}

// Appends `row` extended by each combination of one match per run pattern,
// in pattern order with the last pattern fastest. A run pattern binds only
// its own object variable, which the row leaves unbound, so no combination
// conflicts. `at` is scratch of the run's size, all zero on entry and on
// return.
void ExtendRowByStar(std::span<const CompiledPattern> run,
                     const std::vector<std::vector<rdf::TripleId>>& matches,
                     std::vector<size_t>* at, SolutionRow row,
                     SolutionTable* out) {
  for (;;) {
    const std::span<TermId> extended = out->AppendRow(row);
    for (size_t j = 0; j < run.size(); ++j) {
      if (run[j].o_var >= 0) extended[run[j].o_var] = matches[j][(*at)[j]].o;
    }
    size_t j = run.size();
    while (j > 0 && ++(*at)[j - 1] == matches[j - 1].size()) (*at)[--j] = 0;
    if (j == 0) return;
  }
}

// Executes a star run as one step. Each row's probes make one pass over
// the subject's SPO run (ProbeCursor::ForEachStarMatch): ascending
// (predicate, object) keys, each galloping from the last. ExecStats keeps
// a row per pattern: the index rows that pattern's NLJ step would
// enumerate, i.e. its matches once per extension the run's earlier
// patterns emit.
Status ExecuteStarStep(const rdf::Graph& graph,
                       std::span<const CompiledPattern> run,
                       std::span<const int> sources, const JoinOptions& opts,
                       SolutionTable* rows) {
  // The probe keys in ascending (predicate, object) order, a free object
  // sorting as 0, and the run pattern each key belongs to.
  std::vector<size_t> key_pattern(run.size());
  std::iota(key_pattern.begin(), key_pattern.end(), 0);
  auto sort_key = [&run](size_t j) {
    return std::pair(run[j].p_id, run[j].o_var < 0 ? run[j].o_id : 0);
  };
  std::stable_sort(
      key_pattern.begin(), key_pattern.end(),
      [&](size_t a, size_t b) { return sort_key(a) < sort_key(b); });
  std::vector<std::pair<TermId, TermId>> keys;
  for (size_t j : key_pattern) {
    keys.emplace_back(run[j].p_id, run[j].o_var < 0 ? run[j].o_id : kNoTermId);
  }
  const int subject = run[0].s_var;
  return JoinStep('*', sources, opts, rows, [&](TraceSpan* span) {
    span->Arg("strategy", "star");
    return RunStepMorsels(
        rows->size(), rows->width(), opts,
        [&](size_t lo, size_t hi, StepPart* part) {
          rdf::Graph::ProbeCursor cursor(graph);
          ScanMatches scan{opts.ctx};
          std::vector<std::vector<rdf::TripleId>> matches(run.size());
          std::vector<size_t> at(run.size(), 0);
          for (size_t r = lo; r < hi && !scan.stopped; ++r) {
            const SolutionRow row = rows->row(r);
            for (std::vector<rdf::TripleId>& m : matches) m.clear();
            cursor.ForEachStarMatch(
                row[subject], keys, [&](size_t i, const rdf::TripleId& t) {
                  scan.AddTo(t, &matches[key_pattern[i]]);
                });
            size_t reach = 1;  // extensions the patterns before j emit
            for (size_t j = 0; j < run.size() && reach > 0; ++j) {
              if (part->pattern_scanned.size() == j) {
                part->pattern_scanned.push_back(0);
              }
              part->pattern_scanned[j] += reach * matches[j].size();
              reach *= matches[j].size();
            }
            if (reach > 0 && !scan.stopped) {
              ExtendRowByStar(run, matches, &at, row, &part->rows);
            }
          }
        });
  });
}

// ---- seed scan -------------------------------------------------------------

// The first step of a DP-seeded run: enumerate the first pattern's
// constant-narrowed range in `perm`, so the intermediate comes out sorted on
// the plan's interesting-order variable and the later steps probe sorted
// input, then extend the seed row through the seed kernel.
Status ExecuteSeedStep(const rdf::Graph& graph, const CompiledPattern& p,
                       int source_pattern, rdf::Graph::Perm perm,
                       const JoinOptions& opts, SolutionTable* rows) {
  return JoinStep('S', {&source_pattern, 1}, opts, rows, [&](TraceSpan* span) {
    span->Arg("strategy", "seed-scan");
    span->Arg("perm", PermName(perm));
    ScanMatches seed{opts.ctx};
    graph.ForEachInPerm(perm, p.s_var < 0 ? p.s_id : kNoTermId,
                        p.p_var < 0 ? p.p_id : kNoTermId,
                        p.o_var < 0 ? p.o_id : kNoTermId,
                        [&](const rdf::TripleId& t) { seed.Add(t); });
    return ExtendSeed(p, rows->row(0), seed, opts);
  });
}

// Plans a DP-seeded run's seed: annotates the execution-ordered patterns
// and surfaces the plan shape. Returns the seed permutation. Annotation is
// a pure function of the order, so EXPLAIN, which annotates the order
// PlanBgpOrder gives, shows the plan this run executes.
rdf::Graph::Perm PlanSeed(const rdf::Graph& graph,
                          const std::vector<CompiledPattern>& patterns,
                          const std::vector<int>& source_index,
                          bool dp_ordered, const JoinOptions& opts) {
  BgpPlan plan = AnnotateBgpPlan(graph, patterns, /*seeded=*/true);
  plan.used_dp = dp_ordered;
  {
    TraceSpan plan_span(TracerOf(opts), "plan-v2");
    plan_span.Arg("patterns", static_cast<uint64_t>(patterns.size()));
    plan_span.Arg("dp", dp_ordered);
    plan_span.Arg("head_slot", static_cast<int64_t>(plan.head_slot));
  }
  if (opts.stats != nullptr) {
    opts.stats->plan_shapes.push_back(plan.ToJson(source_index));
    if (dp_ordered) ++opts.stats->dp_plans;
  }
  return plan.steps[0].perm;
}

/// A top-level run: one all-unbound seed row. Only these start with a seed
/// scan under use_dp, since its interesting order assumes the first pattern
/// produces the intermediate; seeded re-entries (OPTIONAL / UNION / EXISTS)
/// probe from their input rows.
bool TopLevelRun(const SolutionTable& rows) {
  if (rows.size() != 1) return false;
  for (TermId v : rows.row(0)) {
    if (v != kNoTermId) return false;
  }
  return true;
}

/// The one DP-eligibility rule, shared by execution and EXPLAIN so they
/// cannot disagree.
bool DpOrders(const JoinOptions& opts, const SolutionTable& rows,
              size_t n) {
  return opts.use_dp && DpSearches(n) && TopLevelRun(rows);
}

}  // namespace

Status JoinBgp(const rdf::Graph& graph, std::vector<CompiledPattern> patterns,
               size_t slot_count, bool reorder, const JoinOptions& opts,
               SolutionTable* rows) {
  rows->Widen(slot_count);
  for (const CompiledPattern& p : patterns) {
    if (p.impossible) {
      *rows = SolutionTable(rows->width());
      return Status::OK();
    }
  }

  // Track each pattern's position in the source BGP so the chosen join
  // order is reportable.
  std::vector<int> source_index(patterns.size());
  std::iota(source_index.begin(), source_index.end(), 0);

  const bool top_level = TopLevelRun(*rows);
  const bool seeded = opts.use_dp && !patterns.empty() && top_level;
  // "This plan's order came from the DP search".
  const bool dp_ordered = DpOrders(opts, *rows, patterns.size());

  // Join ordering (PlanBgpOrder). DP also applies when `reorder` is off,
  // making the chosen order immune to source-order accidents. Orders only
  // change performance, never the result set.
  if (patterns.size() > 1 && (reorder || dp_ordered)) {
    TraceSpan plan_span(TracerOf(opts), "plan");
    plan_span.Arg("patterns", static_cast<uint64_t>(patterns.size()));
    if (dp_ordered) plan_span.Arg("dp", true);
    std::vector<int> order =
        PlanBgpOrder(graph, patterns, opts, reorder, *rows);
    std::vector<CompiledPattern> ordered;
    ordered.reserve(patterns.size());
    for (int idx : order) ordered.push_back(patterns[idx]);
    patterns = std::move(ordered);
    source_index = std::move(order);
  }

  // A DP-seeded run starts with a seed scan in the plan's permutation. Then
  // a star run executes as one step, every other pattern as its own; on a
  // top-level run the FILTERs the steps so far make ready run in between.
  const rdf::Graph::Perm seed_perm =
      seeded ? PlanSeed(graph, patterns, source_index, dp_ordered, opts)
             : rdf::Graph::kPermSPO;
  std::set<int> bound;
  for (size_t pi = 0; pi < patterns.size();) {
    const bool seed = seeded && pi == 0;
    const size_t end =
        seed ? pi : StarRunEnd(graph, patterns, pi, opts, *rows);
    if (seed) {
      RDFA_RETURN_NOT_OK(ExecuteSeedStep(graph, patterns[0], source_index[0],
                                         seed_perm, opts, rows));
    } else if (end > pi) {
      RDFA_RETURN_NOT_OK(ExecuteStarStep(
          graph, std::span(patterns).subspan(pi, end - pi),
          std::span(source_index).subspan(pi, end - pi), opts, rows));
    } else {
      RDFA_RETURN_NOT_OK(ExecuteAdaptiveStep(graph, patterns[pi],
                                             source_index[pi], opts, rows));
    }
    for (const size_t next = std::max(end, pi + 1); pi < next; ++pi) {
      MarkBound(patterns[pi], &bound);
    }
    if (top_level && opts.after_step && pi < patterns.size() &&
        !rows->empty()) {
      opts.after_step(bound);
    }
    if (rows->empty()) return Status::OK();
  }
  return Status::OK();
}

std::vector<int> PlanBgpOrder(const rdf::Graph& graph,
                              const std::vector<CompiledPattern>& patterns,
                              const JoinOptions& opts, bool reorder,
                              const SolutionTable& rows, bool* used_dp) {
  const bool dp = DpOrders(opts, rows, patterns.size());
  if (used_dp != nullptr) *used_dp = dp;
  if (dp) {
    static Histogram& dp_plan_ms = MetricsRegistry::Global().GetHistogram(
        "rdfa_dp_plan_ms", Histogram::LatencyBoundsMs(),
        "DP join-order search latency");
    double ms = 0;
    std::vector<int> order;
    {
      TraceSpan dp_span(TracerOf(opts), "dp-plan", &ms);
      DpStats dp_stats;
      order = PlanBgpOrderDp(graph, patterns, &dp_stats);
      dp_span.Arg("states_considered",
                  static_cast<uint64_t>(dp_stats.states_considered));
      dp_span.Arg("states_expanded",
                  static_cast<uint64_t>(dp_stats.states_expanded));
    }
    dp_plan_ms.Observe(ms);
    return order;
  }
  std::vector<int> source(patterns.size());
  std::iota(source.begin(), source.end(), 0);
  if (!reorder || patterns.size() <= 1) return source;
  // Seed "bound" with slots already bound in the incoming rows.
  std::set<int> bound;
  if (!rows.empty()) {
    const SolutionRow first = rows.row(0);
    for (size_t i = 0; i < first.size(); ++i) {
      if (first[i] != kNoTermId) bound.insert(static_cast<int>(i));
    }
  }
  return GreedyOrder(graph, patterns, std::move(bound));
}

}  // namespace rdfa::sparql
