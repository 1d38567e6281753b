#include "sparql/bgp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
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

// Rows below this threshold are not worth splitting into morsels.
constexpr size_t kMinMorselRows = 64;
// Morsels per thread: enough slack for load balancing without drowning the
// join in scheduling overhead.
constexpr size_t kMorselsPerThread = 4;
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
// given the variables bound so far. Returns indexes into `patterns` in
// execution order. Shared by JoinBgp and the plan-only EXPLAIN path.
std::vector<int> GreedyOrder(const rdf::Graph& graph,
                             const std::vector<CompiledPattern>& patterns,
                             std::set<int> bound) {
  std::vector<int> order;
  order.reserve(patterns.size());
  std::vector<bool> used(patterns.size(), false);
  for (size_t step = 0; step < patterns.size(); ++step) {
    double best = -1;
    size_t best_i = 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i]) continue;
      double s = Score(graph, patterns[i], bound);
      if (best < 0 || s < best) {
        best = s;
        best_i = i;
      }
    }
    used[best_i] = true;
    order.push_back(static_cast<int>(best_i));
    MarkBound(patterns[best_i], &bound);
  }
  return order;
}

// Binds the lanes of triple `t` into `*row` under pattern `p`, re-checking
// same-variable positions (e.g. ?x p ?x). Returns false on a conflict,
// leaving `*row` partly bound.
inline bool BindTriple(const CompiledPattern& p, const rdf::TripleId& t,
                       Binding* row) {
  auto bind = [row](int var, TermId value) {
    if (var < 0) return true;
    TermId& slot = (*row)[var];
    if (slot != kNoTermId && slot != value) return false;
    slot = value;
    return true;
  };
  return bind(p.s_var, t.s) && bind(p.p_var, t.p) && bind(p.o_var, t.o);
}

// Extends `row` with triple `t` under pattern `p`; appends to `*out` unless
// the two conflict.
inline void ExtendRow(const CompiledPattern& p, const Binding& row,
                      const rdf::TripleId& t, std::vector<Binding>* out) {
  Binding extended = row;
  if (BindTriple(p, t, &extended)) out->push_back(std::move(extended));
}

// Appends `*row` extended by each of `matches`, in order, to `*out`. The
// last extension takes over the row's storage instead of copying it, so
// the row is left unspecified: callers pass input rows they discard after
// the step.
void ExtendRowBy(const CompiledPattern& p, Binding* row,
                 std::span<const rdf::TripleId> matches,
                 std::vector<Binding>* out) {
  if (matches.empty()) return;
  for (size_t i = 0; i + 1 < matches.size(); ++i) {
    ExtendRow(p, *row, matches[i], out);
  }
  if (BindTriple(p, matches.back(), row)) out->push_back(std::move(*row));
}

// Extends every row in [begin, end) of `*rows` through `p`, appending the
// results (in row order) to `*out` and leaving the input rows unspecified.
// Returns the number of index rows enumerated. When `ctx` is set, polls it
// every kCheckEveryRows enumerated rows and abandons the remaining range
// once it trips (the caller turns the trip into a typed Status; the partial
// output is discarded). One probe cursor serves the range: input sorted on
// the probed lane (a seed scan's order) gallops from probe to probe.
size_t ExtendRange(const rdf::Graph& graph, const CompiledPattern& p,
                   std::vector<Binding>* rows, size_t begin, size_t end,
                   const QueryContext* ctx, std::vector<Binding>* out) {
  size_t scanned = 0;
  bool stopped = false;
  rdf::Graph::ProbeCursor cursor(graph);
  std::vector<rdf::TripleId> matches;
  for (size_t r = begin; r < end && !stopped; ++r) {
    Binding& row = (*rows)[r];
    TermId s = p.s_var < 0 ? p.s_id : row[p.s_var];
    TermId pp = p.p_var < 0 ? p.p_id : row[p.p_var];
    TermId o = p.o_var < 0 ? p.o_id : row[p.o_var];
    matches.clear();
    cursor.ForEachMatch(s, pp, o, [&](const rdf::TripleId& t) {
      if (stopped) return;  // drain the scan without extending
      ++scanned;
      if (ctx != nullptr && scanned % kCheckEveryRows == 0 &&
          ctx->ShouldStop()) {
        stopped = true;
        return;
      }
      matches.push_back(t);
    });
    ExtendRowBy(p, &row, matches, out);
  }
  return scanned;
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
                  const std::vector<Binding>& rows, JoinStrategy strategy) {
  HashPlan plan;
  if (strategy == JoinStrategy::kNestedLoop || rows.empty()) return plan;
  const Binding& first = rows.front();
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
                      std::vector<Binding>* rows, size_t begin, size_t end,
                      const QueryContext* ctx, std::vector<Binding>* out,
                      size_t* probe_hits) {
  size_t fallback_scanned = 0;
  bool stopped = false;
  rdf::Graph::ProbeCursor cursor(graph);
  std::vector<rdf::TripleId> matches;
  for (size_t r = begin; r < end && !stopped; ++r) {
    Binding& row = (*rows)[r];
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
          stopped = true;
          break;
        }
      }
      ExtendRowBy(p, &row, {bucket.data(), hits}, out);
    } else {
      TermId s = p.s_var < 0 ? p.s_id : row[p.s_var];
      TermId pp = p.p_var < 0 ? p.p_id : row[p.p_var];
      TermId o = p.o_var < 0 ? p.o_id : row[p.o_var];
      matches.clear();
      cursor.ForEachMatch(s, pp, o, [&](const rdf::TripleId& t) {
        if (stopped) return;
        ++fallback_scanned;
        if (ctx != nullptr && fallback_scanned % kCheckEveryRows == 0 &&
            ctx->ShouldStop()) {
          stopped = true;
          return;
        }
        matches.push_back(t);
      });
      ExtendRowBy(p, &row, matches, out);
    }
  }
  return fallback_scanned;
}

// Executes one pattern step through the v1 hash/NLJ machinery — shared by
// the classic pattern loop and planner-v2 non-merge (or demoted) steps.
// Replaces *rows with the extended set; empty output short-circuits in the
// caller.
Status ExecuteAdaptiveStep(const rdf::Graph& graph, const CompiledPattern& p,
                           int source_pattern, const JoinOptions& opts,
                           int threads, Tracer* tracer,
                           std::vector<Binding>* rows) {
  // One typed check per join stage; scans poll the cheap flag inline.
  if (opts.ctx != nullptr) RDFA_RETURN_NOT_OK(opts.ctx->Check("bgp-join"));
  TraceSpan join_span(tracer, "bgp-join");
  join_span.Arg("pattern", static_cast<int64_t>(source_pattern));
  join_span.Arg("input_rows", static_cast<uint64_t>(rows->size()));
  std::vector<Binding> next;
  next.reserve(rows->size());
  size_t scanned = 0;
  char strategy_used = 'N';
  Status build_status = Status::OK();

  const HashPlan plan = PlanHash(graph, p, *rows, opts.strategy);
  if (plan.use_hash) {
    strategy_used = 'H';
    HashTable table;
    size_t build_scanned = 0;
    {
      TraceSpan build_span(tracer, "hash-build");
      build_status =
          BuildHashTable(graph, p, plan, opts.ctx, &table, &build_scanned);
      build_span.Arg("build_rows", static_cast<uint64_t>(build_scanned));
    }
    scanned += build_scanned;
    if (opts.stats != nullptr) {
      ++opts.stats->hash_builds;
      opts.stats->hash_build_rows += build_scanned;
    }
    if (build_status.ok()) {
      size_t probe_hits = 0;
      if (threads > 1 && rows->size() >= 2 * kMinMorselRows) {
        // Morsel-parallel probe; concatenation in morsel order keeps the
        // output byte-identical to the serial probe (and thus to NLJ).
        auto morsels =
            Morsels(rows->size(),
                    static_cast<size_t>(threads) * kMorselsPerThread,
                    kMinMorselRows);
        std::vector<std::vector<Binding>> parts(morsels.size());
        std::vector<size_t> part_scanned(morsels.size(), 0);
        std::vector<size_t> part_hits(morsels.size(), 0);
        ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
          if (opts.ctx != nullptr && opts.ctx->ShouldStop()) return;
          auto [lo, hi] = morsels[m];
          part_scanned[m] =
              ProbeHashRange(graph, p, plan, table, rows, lo, hi, opts.ctx,
                             &parts[m], &part_hits[m]);
        });
        for (size_t m = 0; m < morsels.size(); ++m) {
          scanned += part_scanned[m];
          probe_hits += part_hits[m];
          for (Binding& b : parts[m]) next.push_back(std::move(b));
        }
        if (opts.stats != nullptr) {
          opts.stats->morsel_count += morsels.size();
        }
      } else {
        scanned += ProbeHashRange(graph, p, plan, table, rows, 0,
                                  rows->size(), opts.ctx, &next, &probe_hits);
      }
      if (opts.stats != nullptr) opts.stats->hash_probe_hits += probe_hits;
      join_span.Arg("probe_hits", static_cast<uint64_t>(probe_hits));
    }
  } else if (threads > 1 && rows->size() == 1) {
    // Single seed row (the common first pattern): materialize the index
    // range once and split *it* into morsels.
    const Binding& row = rows->front();
    TermId s = p.s_var < 0 ? p.s_id : row[p.s_var];
    TermId pp = p.p_var < 0 ? p.p_id : row[p.p_var];
    TermId o = p.o_var < 0 ? p.o_id : row[p.o_var];
    std::vector<rdf::TripleId> matches = graph.Match(s, pp, o);
    scanned = matches.size();
    auto morsels = Morsels(matches.size(),
                           static_cast<size_t>(threads) * kMorselsPerThread,
                           kMinMorselRows);
    if (morsels.size() <= 1) {
      for (size_t i = 0; i < matches.size(); ++i) {
        if (opts.ctx != nullptr && (i + 1) % kCheckEveryRows == 0 &&
            opts.ctx->ShouldStop()) {
          break;
        }
        ExtendRow(p, row, matches[i], &next);
      }
    } else {
      std::vector<std::vector<Binding>> parts(morsels.size());
      ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
        auto [lo, hi] = morsels[m];
        parts[m].reserve(hi - lo);
        for (size_t i = lo; i < hi; ++i) {
          if (opts.ctx != nullptr && (i - lo + 1) % kCheckEveryRows == 0 &&
              opts.ctx->ShouldStop()) {
            return;  // abandon this morsel; caller reports the trip
          }
          ExtendRow(p, row, matches[i], &parts[m]);
        }
      });
      for (std::vector<Binding>& part : parts) {
        for (Binding& b : part) next.push_back(std::move(b));
      }
      if (opts.stats != nullptr) opts.stats->morsel_count += morsels.size();
    }
  } else if (threads > 1 && rows->size() >= 2 * kMinMorselRows) {
    // Morsel-parallel extension over the incoming rows; concatenation in
    // morsel order keeps the output byte-identical to the serial join.
    auto morsels = Morsels(rows->size(),
                           static_cast<size_t>(threads) * kMorselsPerThread,
                           kMinMorselRows);
    std::vector<std::vector<Binding>> parts(morsels.size());
    std::vector<size_t> part_scanned(morsels.size(), 0);
    ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
      if (opts.ctx != nullptr && opts.ctx->ShouldStop()) return;
      auto [lo, hi] = morsels[m];
      part_scanned[m] =
          ExtendRange(graph, p, rows, lo, hi, opts.ctx, &parts[m]);
    });
    for (size_t m = 0; m < morsels.size(); ++m) {
      scanned += part_scanned[m];
      for (Binding& b : parts[m]) next.push_back(std::move(b));
    }
    if (opts.stats != nullptr) opts.stats->morsel_count += morsels.size();
  } else {
    scanned = ExtendRange(graph, p, rows, 0, rows->size(), opts.ctx, &next);
  }

  if (opts.stats != nullptr) {
    ++opts.stats->bgp_patterns;
    opts.stats->rows_scanned.push_back(scanned);
    opts.stats->join_order.push_back(source_pattern);
    opts.stats->join_strategy.push_back(strategy_used);
  }
  join_span.Arg("strategy", strategy_used == 'H' ? "hash" : "nested-loop");
  join_span.Arg("rows_scanned", static_cast<uint64_t>(scanned));
  join_span.Arg("output_rows", static_cast<uint64_t>(next.size()));
  // A tripped hash build already carries the typed status from its
  // counted check; surface it after the stats are recorded.
  RDFA_RETURN_NOT_OK(build_status);
  // A scan abandoned mid-pattern left `next` partial: surface the typed
  // status now rather than joining the next pattern against garbage.
  if (opts.ctx != nullptr) RDFA_RETURN_NOT_OK(opts.ctx->Check("bgp-join"));
  if (opts.ctx != nullptr) opts.ctx->AddProgressRows(next.size());
  *rows = std::move(next);
  return Status::OK();
}

// ---- planner v2: seed scan / sieve / merge steps -------------------------

// Planner-v2 seed step: enumerate the first pattern's constant-narrowed
// range in the plan's permutation, so the intermediate comes out sorted on
// the interesting-order variable. Byte-layout mirrors the v1 single-seed
// path (materialize, then extend serially or by morsels).
Status ExecuteSeedStep(const rdf::Graph& graph, const CompiledPattern& p,
                       int source_pattern, const PlannedStep& step,
                       const JoinOptions& opts, int threads, Tracer* tracer,
                       std::vector<Binding>* rows) {
  if (opts.ctx != nullptr) RDFA_RETURN_NOT_OK(opts.ctx->Check("bgp-join"));
  TraceSpan join_span(tracer, "bgp-join");
  join_span.Arg("pattern", static_cast<int64_t>(source_pattern));
  join_span.Arg("input_rows", static_cast<uint64_t>(rows->size()));
  join_span.Arg("strategy", "seed-scan");
  join_span.Arg("perm", PermName(step.perm));
  const Binding row = rows->front();
  std::vector<rdf::TripleId> matches;
  bool stopped = false;
  size_t scanned = 0;
  graph.ForEachInPerm(step.perm, p.s_var < 0 ? p.s_id : kNoTermId,
                      p.p_var < 0 ? p.p_id : kNoTermId,
                      p.o_var < 0 ? p.o_id : kNoTermId,
                      [&](const rdf::TripleId& t) {
                        if (stopped) return;
                        ++scanned;
                        if (opts.ctx != nullptr &&
                            scanned % kCheckEveryRows == 0 &&
                            opts.ctx->ShouldStop()) {
                          stopped = true;
                          return;
                        }
                        matches.push_back(t);
                      });
  std::vector<Binding> next;
  next.reserve(matches.size());
  bool extended = false;
  if (threads > 1) {
    auto morsels = Morsels(matches.size(),
                           static_cast<size_t>(threads) * kMorselsPerThread,
                           kMinMorselRows);
    if (morsels.size() > 1) {
      std::vector<std::vector<Binding>> parts(morsels.size());
      ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
        auto [lo, hi] = morsels[m];
        parts[m].reserve(hi - lo);
        for (size_t i = lo; i < hi; ++i) {
          if (opts.ctx != nullptr && (i - lo + 1) % kCheckEveryRows == 0 &&
              opts.ctx->ShouldStop()) {
            return;  // abandon this morsel; caller reports the trip
          }
          ExtendRow(p, row, matches[i], &parts[m]);
        }
      });
      for (std::vector<Binding>& part : parts) {
        for (Binding& b : part) next.push_back(std::move(b));
      }
      if (opts.stats != nullptr) opts.stats->morsel_count += morsels.size();
      extended = true;
    }
  }
  if (!extended) {
    for (size_t i = 0; i < matches.size(); ++i) {
      if (opts.ctx != nullptr && (i + 1) % kCheckEveryRows == 0 &&
          opts.ctx->ShouldStop()) {
        break;
      }
      ExtendRow(p, row, matches[i], &next);
    }
  }
  if (opts.stats != nullptr) {
    ++opts.stats->bgp_patterns;
    opts.stats->rows_scanned.push_back(scanned);
    opts.stats->join_order.push_back(source_pattern);
    opts.stats->join_strategy.push_back('S');
  }
  join_span.Arg("rows_scanned", static_cast<uint64_t>(scanned));
  join_span.Arg("output_rows", static_cast<uint64_t>(next.size()));
  if (opts.ctx != nullptr) RDFA_RETURN_NOT_OK(opts.ctx->Check("bgp-join"));
  if (opts.ctx != nullptr) opts.ctx->AddProgressRows(next.size());
  *rows = std::move(next);
  return Status::OK();
}

// A contiguous run of input rows sharing one interesting-order key — the
// sieve a merge step pushes into its cursor.
struct SieveRun {
  TermId key;
  size_t begin, end;  // input-row extent [begin, end)
};

// Builds the sieve: distinct head-slot values of the (sorted) input with
// their run extents. Returns false when a row leaves the head unbound or
// breaks the sort order — the caller then demotes the step to the adaptive
// machinery, which is byte-identical. A tripped counted check is reported
// through *status with the sieve left partial.
bool BuildSieve(const std::vector<Binding>& rows, int head_slot,
                const QueryContext* ctx, std::vector<SieveRun>* runs,
                Status* status) {
  runs->clear();
  size_t polled = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const TermId v = rows[r][head_slot];
    if (v == kNoTermId) return false;
    if (!runs->empty() && v < runs->back().key) return false;
    if (ctx != nullptr && ++polled % kCheckEveryRows == 0) {
      Status check = ctx->Check("sieve-build");
      if (!check.ok()) {
        *status = check;
        return true;
      }
    }
    if (runs->empty() || v != runs->back().key) {
      runs->push_back({v, r, r + 1});
    } else {
      runs->back().end = r + 1;
    }
  }
  return true;
}

// Streams one merge cursor against a contiguous range of sieve runs,
// appending extensions in input-row order. The cursor seeks straight to
// each run's key (sideways information passing: whole blocks of
// non-candidates are skipped undecoded). Each key group is buffered once
// and replayed across its run's rows — the replay enumerates exactly the
// triples (in exactly the order) a per-row NLJ probe of that key would,
// which is the byte-identity argument.
Status MergeRuns(const rdf::Graph& graph, const CompiledPattern& p,
                 rdf::Graph::Perm perm, const std::vector<Binding>& rows,
                 const std::vector<SieveRun>& runs, size_t run_lo,
                 size_t run_hi, const QueryContext* ctx,
                 std::vector<Binding>* out, size_t* decoded, size_t* seeks,
                 size_t* advances) {
  rdf::Graph::MergeCursor cur = graph.OpenMergeCursor(
      perm, p.s_var < 0 ? p.s_id : kNoTermId,
      p.p_var < 0 ? p.p_id : kNoTermId, p.o_var < 0 ? p.o_id : kNoTermId);
  std::vector<rdf::TripleId> group;
  for (size_t ri = run_lo; ri < run_hi && !cur.at_end(); ++ri) {
    const SieveRun& run = runs[ri];
    cur.SeekGE(run.key);
    if (cur.at_end()) break;
    if (cur.key() != run.key) continue;
    group.clear();
    while (!cur.at_end() && cur.key() == run.key) {
      group.push_back(cur.triple());
      cur.Next();
      if (ctx != nullptr && ++*advances % kCheckEveryRows == 0) {
        Status check = ctx->Check("merge-advance");
        if (!check.ok()) {
          *decoded += cur.decoded();
          *seeks += cur.seeks();
          return check;
        }
      }
    }
    for (size_t r = run.begin; r < run.end; ++r) {
      for (const rdf::TripleId& t : group) ExtendRow(p, rows[r], t, out);
    }
  }
  *decoded += cur.decoded();
  *seeks += cur.seeks();
  return Status::OK();
}

// Planner-v2 merge step: sieve the input's interesting-order keys, stream
// an order-agreeing cursor against them. Parallel execution splits the
// *runs* into morsels, each with its own cursor; concatenation in morsel
// order equals the serial output.
Status ExecuteMergeStep(const rdf::Graph& graph, const CompiledPattern& p,
                        int source_pattern, const PlannedStep& step,
                        int head_slot, const JoinOptions& opts, int threads,
                        Tracer* tracer, std::vector<Binding>* rows) {
  std::vector<SieveRun> runs;
  Status sieve_status = Status::OK();
  if (!BuildSieve(*rows, head_slot, opts.ctx, &runs, &sieve_status)) {
    // Head unbound or input unsorted — impossible for trivial-seed
    // pipelines, but the demotion is byte-identical regardless.
    return ExecuteAdaptiveStep(graph, p, source_pattern, opts, threads,
                               tracer, rows);
  }
  if (opts.ctx != nullptr) RDFA_RETURN_NOT_OK(opts.ctx->Check("bgp-join"));
  TraceSpan join_span(tracer, "bgp-join");
  join_span.Arg("pattern", static_cast<int64_t>(source_pattern));
  join_span.Arg("input_rows", static_cast<uint64_t>(rows->size()));
  join_span.Arg("strategy", "merge");
  join_span.Arg("perm", PermName(step.perm));
  join_span.Arg("sieve_keys", static_cast<uint64_t>(runs.size()));

  std::vector<Binding> next;
  size_t decoded = 0, seeks = 0, advances = 0;
  Status merge_status = sieve_status;
  if (merge_status.ok()) {
    next.reserve(rows->size());
    bool merged = false;
    if (threads > 1 && rows->size() >= 2 * kMinMorselRows) {
      auto morsels = Morsels(runs.size(),
                             static_cast<size_t>(threads) * kMorselsPerThread,
                             kMinMorselRows);
      if (morsels.size() > 1) {
        std::vector<std::vector<Binding>> parts(morsels.size());
        std::vector<size_t> part_decoded(morsels.size(), 0);
        std::vector<size_t> part_seeks(morsels.size(), 0);
        std::vector<size_t> part_advances(morsels.size(), 0);
        std::vector<Status> part_status(morsels.size(), Status::OK());
        ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
          if (opts.ctx != nullptr && opts.ctx->ShouldStop()) return;
          auto [lo, hi] = morsels[m];
          part_status[m] = MergeRuns(graph, p, step.perm, *rows, runs, lo, hi,
                                     opts.ctx, &parts[m], &part_decoded[m],
                                     &part_seeks[m], &part_advances[m]);
        });
        for (size_t m = 0; m < morsels.size(); ++m) {
          decoded += part_decoded[m];
          seeks += part_seeks[m];
          if (merge_status.ok() && !part_status[m].ok()) {
            merge_status = part_status[m];
          }
          for (Binding& b : parts[m]) next.push_back(std::move(b));
        }
        if (opts.stats != nullptr) opts.stats->morsel_count += morsels.size();
        merged = true;
      }
    }
    if (!merged) {
      merge_status = MergeRuns(graph, p, step.perm, *rows, runs, 0,
                               runs.size(), opts.ctx, &next, &decoded, &seeks,
                               &advances);
    }
  }
  if (opts.stats != nullptr) {
    ++opts.stats->bgp_patterns;
    opts.stats->rows_scanned.push_back(decoded);
    opts.stats->join_order.push_back(source_pattern);
    opts.stats->join_strategy.push_back('M');
    ++opts.stats->merge_joins;
    opts.stats->merge_rows_decoded += decoded;
    opts.stats->sieve_seeks += seeks;
    opts.stats->sieve_keys += runs.size();
  }
  join_span.Arg("rows_scanned", static_cast<uint64_t>(decoded));
  join_span.Arg("sieve_seeks", static_cast<uint64_t>(seeks));
  join_span.Arg("output_rows", static_cast<uint64_t>(next.size()));
  RDFA_RETURN_NOT_OK(merge_status);
  if (opts.ctx != nullptr) RDFA_RETURN_NOT_OK(opts.ctx->Check("bgp-join"));
  if (opts.ctx != nullptr) opts.ctx->AddProgressRows(next.size());
  *rows = std::move(next);
  return Status::OK();
}

// Planner-v2 pipeline: annotate the execution-ordered patterns, surface the
// plan shape, run the seed scan in the interesting-order permutation, then
// each later step as a merge (when qualified and not forced to NLJ) or
// through the adaptive machinery. Annotation is a pure function of the
// order, so a plan-cache replay of the captured order reproduces the plan
// bit-for-bit.
Status ExecuteBgpV2(const rdf::Graph& graph,
                    const std::vector<CompiledPattern>& patterns,
                    const std::vector<int>& source_index, bool dp_ordered,
                    const JoinOptions& opts, int threads, Tracer* tracer,
                    std::vector<Binding>* rows) {
  BgpPlan plan = AnnotateBgpPlan(graph, patterns);
  plan.used_dp = dp_ordered;
  {
    TraceSpan plan_span(tracer, "plan-v2");
    plan_span.Arg("patterns", static_cast<uint64_t>(patterns.size()));
    plan_span.Arg("dp", dp_ordered);
    plan_span.Arg("head_slot", static_cast<int64_t>(plan.head_slot));
  }
  if (opts.stats != nullptr) {
    opts.stats->plan_shapes.push_back(plan.ToJson(source_index));
    if (dp_ordered) ++opts.stats->dp_plans;
  }
  // kNestedLoop demotes qualified merge steps to the NLJ oracle —
  // byte-identical by the order argument in MergeRuns.
  const bool merge_enabled = opts.strategy == JoinStrategy::kAdaptive;
  // A plan that streams a secondary permutation builds the secondaries
  // first, in their own stage, so the build is not charged to the join.
  bool needs_secondary = plan.steps[0].perm >= rdf::Graph::kPermPSO;
  for (size_t pi = 1; pi < patterns.size(); ++pi) {
    needs_secondary = needs_secondary ||
                      (merge_enabled && plan.steps[pi].strategy == 'M' &&
                       plan.steps[pi].perm >= rdf::Graph::kPermPSO);
  }
  if (needs_secondary && !graph.secondary_indexes_built()) {
    const auto start = std::chrono::steady_clock::now();
    {
      TraceSpan build_span(tracer, "index-build-secondary");
      graph.EnsureSecondaryIndexes();
    }
    if (opts.stats != nullptr) {
      opts.stats->index_build_ms +=
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
    }
  }
  std::set<int> bound;
  auto after_step = [&](size_t pi) {
    MarkBound(patterns[pi], &bound);
    if (opts.after_step && pi + 1 < patterns.size()) opts.after_step(bound);
  };
  RDFA_RETURN_NOT_OK(ExecuteSeedStep(graph, patterns[0], source_index[0],
                                     plan.steps[0], opts, threads, tracer,
                                     rows));
  after_step(0);
  if (rows->empty()) return Status::OK();
  for (size_t pi = 1; pi < patterns.size(); ++pi) {
    const PlannedStep& step = plan.steps[pi];
    if (step.strategy == 'M' && merge_enabled) {
      RDFA_RETURN_NOT_OK(ExecuteMergeStep(graph, patterns[pi],
                                          source_index[pi], step,
                                          plan.head_slot, opts, threads,
                                          tracer, rows));
    } else {
      RDFA_RETURN_NOT_OK(ExecuteAdaptiveStep(graph, patterns[pi],
                                             source_index[pi], opts, threads,
                                             tracer, rows));
    }
    after_step(pi);
    if (rows->empty()) return Status::OK();
  }
  return Status::OK();
}

}  // namespace

Status JoinBgp(const rdf::Graph& graph, std::vector<CompiledPattern> patterns,
               size_t slot_count, bool reorder, const JoinOptions& opts,
               std::vector<Binding>* rows) {
  for (const CompiledPattern& p : patterns) {
    if (p.impossible) {
      rows->clear();
      return Status::OK();
    }
  }
  for (Binding& b : *rows) {
    if (b.size() < slot_count) b.resize(slot_count, kNoTermId);
  }

  // Track each pattern's position in the source BGP so the chosen join
  // order is reportable.
  std::vector<int> source_index(patterns.size());
  std::iota(source_index.begin(), source_index.end(), 0);

  Tracer* tracer = opts.ctx != nullptr ? opts.ctx->tracer() : nullptr;

  // Planner v2 engages only with use_dp on trivial-seed runs (one
  // all-unbound input row — the top-level BGP case): its interesting-order
  // and seed-scan reasoning assumes the first pattern produces the
  // intermediate. Seeded re-entries (OPTIONAL / UNION / EXISTS) run the v1
  // machinery.
  bool trivial_seed = rows->size() == 1;
  if (trivial_seed) {
    for (TermId v : rows->front()) {
      if (v != kNoTermId) {
        trivial_seed = false;
        break;
      }
    }
  }
  const bool v2 = trivial_seed && !patterns.empty() && opts.use_dp;
  // "This plan's order came from the DP search" — deterministic across
  // capture and replay (a replayed DP order still reports dp=true).
  const bool dp_ordered =
      v2 && patterns.size() > 1 && patterns.size() <= kMaxDpPatterns;

  // Plan-cache replay: apply a previously chosen order without re-running
  // the greedy reorderer. Only a valid permutation of the pattern count is
  // trusted — anything else (stale entry shape, corrupted data) falls back
  // to the normal path below.
  bool replayed = false;
  if (opts.replay_order != nullptr &&
      opts.replay_order->size() == patterns.size()) {
    std::vector<CompiledPattern> ordered;
    std::vector<int> ordered_source;
    ordered.reserve(patterns.size());
    ordered_source.reserve(patterns.size());
    std::vector<bool> used(patterns.size(), false);
    bool valid = true;
    for (int src : *opts.replay_order) {
      if (src < 0 || static_cast<size_t>(src) >= patterns.size() ||
          used[src]) {
        valid = false;
        break;
      }
      used[src] = true;
      ordered.push_back(patterns[src]);
      ordered_source.push_back(src);
    }
    if (valid) {
      TraceSpan plan_span(tracer, "plan");
      plan_span.Arg("patterns", static_cast<uint64_t>(patterns.size()));
      plan_span.Arg("replayed", true);
      patterns = std::move(ordered);
      source_index = std::move(ordered_source);
      replayed = true;
    }
  }

  // Join ordering. DP (planner v2) replaces the greedy reorderer when
  // enabled and the BGP is small enough — and, being the reorderer itself,
  // it also applies when `reorder` is off, making the chosen order immune
  // to source-order accidents. Orders only change performance, never the
  // result set.
  if (!replayed && patterns.size() > 1 && (reorder || dp_ordered)) {
    TraceSpan plan_span(tracer, "plan");
    plan_span.Arg("patterns", static_cast<uint64_t>(patterns.size()));
    std::vector<int> order;
    if (dp_ordered) {
      DpStats dp_stats;
      {
        TraceSpan dp_span(tracer, "dp-plan");
        order = PlanBgpOrderDp(graph, patterns, &dp_stats);
        dp_span.Arg("states_considered",
                    static_cast<uint64_t>(dp_stats.states_considered));
        dp_span.Arg("states_expanded",
                    static_cast<uint64_t>(dp_stats.states_expanded));
      }
      plan_span.Arg("dp", true);
      static Histogram& dp_plan_ms = MetricsRegistry::Global().GetHistogram(
          "rdfa_dp_plan_ms", Histogram::LatencyBoundsMs(),
          "DP join-order search latency");
      dp_plan_ms.Observe(dp_stats.plan_ms);
    } else {
      // Seed "bound" with slots already bound in the incoming rows.
      std::set<int> bound;
      if (!rows->empty()) {
        const Binding& first = rows->front();
        for (size_t i = 0; i < first.size(); ++i) {
          if (first[i] != kNoTermId) bound.insert(static_cast<int>(i));
        }
      }
      order = GreedyOrder(graph, patterns, std::move(bound));
    }
    std::vector<CompiledPattern> ordered;
    std::vector<int> ordered_source;
    ordered.reserve(patterns.size());
    ordered_source.reserve(patterns.size());
    for (int idx : order) {
      ordered.push_back(patterns[idx]);
      ordered_source.push_back(source_index[idx]);
    }
    patterns = std::move(ordered);
    source_index = std::move(ordered_source);
  }

  if (opts.capture_order != nullptr) {
    opts.capture_order->assign(source_index.begin(), source_index.end());
  }

  const int threads = std::max(1, opts.threads);
  if (v2) {
    return ExecuteBgpV2(graph, patterns, source_index, dp_ordered, opts,
                        threads, tracer, rows);
  }
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    RDFA_RETURN_NOT_OK(ExecuteAdaptiveStep(graph, patterns[pi],
                                           source_index[pi], opts, threads,
                                           tracer, rows));
    if (rows->empty()) return Status::OK();
  }
  return Status::OK();
}

Status JoinBgp(const rdf::Graph& graph, std::vector<CompiledPattern> patterns,
               size_t slot_count, bool reorder, std::vector<Binding>* rows) {
  return JoinBgp(graph, std::move(patterns), slot_count, reorder,
                 JoinOptions{}, rows);
}

std::vector<int> PlanBgpOrder(const rdf::Graph& graph,
                              const std::vector<CompiledPattern>& patterns,
                              const JoinOptions& opts, bool reorder) {
  std::vector<int> source(patterns.size());
  std::iota(source.begin(), source.end(), 0);
  if (patterns.size() <= 1) return source;
  const bool dp = opts.use_dp && patterns.size() <= kMaxDpPatterns;
  if (dp) return PlanBgpOrderDp(graph, patterns);
  if (!reorder) return source;
  return GreedyOrder(graph, patterns, std::set<int>());
}

}  // namespace rdfa::sparql
