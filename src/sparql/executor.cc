#include "sparql/executor.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "rdf/browse.h"
#include "sparql/bgp.h"
#include "sparql/parser.h"
#include "sparql/planner.h"

namespace rdfa::sparql {

using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;

namespace {

// Row counts below this are not worth splitting into morsels.
constexpr size_t kParallelRowThreshold = 128;
constexpr size_t kMorselsPerThread = 4;
constexpr size_t kMinMorselRows = 64;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool IsInternalVarName(const std::string& name) {
  return StartsWith(name, "_path") || StartsWith(name, "_agg");
}

void CollectAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == Expr::Kind::kAggregate) {
    out->push_back(&e);
    return;  // nested aggregates are not allowed
  }
  for (const ExprPtr& a : e.args) {
    if (a != nullptr) CollectAggregates(*a, out);
  }
}

/// SUM, AVG, MIN or MAX of the bare variable in `slot` over a group, folded
/// from the dictionary's decoded values; nullopt when MIN or MAX meets a
/// bound value that is not a number (they then order mixed kinds as
/// Value::Compare does). Gives what ComputeAggregate's per-row fold gives:
/// a SUM of integers stays an integer until it leaves int64, numbers
/// compare as doubles, and MIN/MAX keep the first of equal values.
std::optional<Value> FoldNumericSlot(AggFunc func, int slot,
                                     const std::vector<Binding>& rows,
                                     std::span<const uint32_t> members,
                                     const EvalContext& ctx) {
  const rdf::TermTable& terms = *ctx.terms;
  size_t count = 0;
  double sum = 0;
  int64_t isum = 0;
  bool all_int = true;
  TermId best = kNoTermId;
  double best_number = 0;
  for (uint32_t r : members) {
    const Binding& row = rows[r];
    const TermId id = slot >= 0 && static_cast<size_t>(slot) < row.size()
                          ? row[slot]
                          : kNoTermId;
    if (id == kNoTermId) continue;
    const rdf::DecodedValue& d = terms.Decoded(id);
    if (!d.is_number()) {
      if (func == AggFunc::kSum || func == AggFunc::kAvg) {
        return Value::Unbound();
      }
      return std::nullopt;
    }
    const double x = d.number();
    ++count;
    if (func == AggFunc::kSum || func == AggFunc::kAvg) {
      sum += x;
      if (d.kind != rdf::DecodedValue::Kind::kInt ||
          __builtin_add_overflow(isum, d.i, &isum)) {
        all_int = false;
      }
    } else if (count == 1 || (func == AggFunc::kMin ? x < best_number
                                                    : x > best_number)) {
      best = id;
      best_number = x;
    }
  }
  switch (func) {
    case AggFunc::kSum:
      return all_int ? Value::Int(isum) : Value::Double(sum);
    case AggFunc::kAvg:
      if (count == 0) return Value::Unbound();
      return Value::Double(sum / static_cast<double>(count));
    default:
      return best == kNoTermId ? Value::Unbound() : Value::OfId(terms, best);
  }
}

/// Computes one aggregate over a group: `members` indexes its rows in
/// `rows`, in input order. `arg` is the aggregate's lowered argument (null
/// for COUNT(*)); `scope` lists the slots of the query's in-scope
/// variables, over which COUNT(DISTINCT *) tells solutions apart.
Value ComputeAggregate(const Expr& agg, const CompiledExpr* arg,
                       const std::vector<Binding>& rows,
                       std::span<const uint32_t> members,
                       const std::vector<int>& scope, const EvalContext& ctx) {
  if (agg.agg_star) {
    if (!agg.agg_distinct) {
      return Value::Int(static_cast<int64_t>(members.size()));
    }
    std::set<std::vector<TermId>> solutions;
    for (uint32_t r : members) {
      std::vector<TermId> solution;
      solution.reserve(scope.size());
      for (int slot : scope) solution.push_back(rows[r][slot]);
      solutions.insert(std::move(solution));
    }
    return Value::Int(static_cast<int64_t>(solutions.size()));
  }
  const std::optional<int> slot = arg->VariableSlot();
  if (agg.agg == AggFunc::kCount && !agg.agg_distinct && slot.has_value()) {
    // A bound variable never evaluates to an error, so COUNT(?v) counts
    // bound slots without reading their terms.
    size_t bound = 0;
    for (uint32_t r : members) {
      const Binding& row = rows[r];
      bound += *slot >= 0 && static_cast<size_t>(*slot) < row.size() &&
               row[*slot] != kNoTermId;
    }
    return Value::Int(static_cast<int64_t>(bound));
  }
  if (slot.has_value() && !agg.agg_distinct &&
      (agg.agg == AggFunc::kSum || agg.agg == AggFunc::kAvg ||
       agg.agg == AggFunc::kMin || agg.agg == AggFunc::kMax)) {
    std::optional<Value> folded =
        FoldNumericSlot(agg.agg, *slot, rows, members, ctx);
    if (folded.has_value()) return std::move(*folded);
  }
  // One pass over the group's values in row order: each aggregate is a left
  // fold, so this gives what folding a collected list would.
  std::set<std::string> seen;
  size_t count = 0;
  bool all_int = true;
  double sum = 0;
  int64_t isum = 0;
  Value best;  // MIN / MAX / SAMPLE
  std::string concat;
  for (uint32_t r : members) {
    Value v = arg->Eval(rows[r], ctx);
    if (v.is_unbound()) continue;
    if (agg.agg_distinct && !seen.insert(v.ToTerm().ToNTriples()).second) {
      continue;
    }
    ++count;
    switch (agg.agg) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        auto n = v.AsNumeric();
        if (!n.has_value()) return Value::Unbound();
        sum += *n;
        if (agg.agg == AggFunc::kAvg) break;
        // An integer SUM that leaves int64 is the double sum instead.
        if (v.kind() != Value::Kind::kInt ||
            __builtin_add_overflow(isum, v.int_value(), &isum)) {
          all_int = false;
        }
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (count == 1) {
          best = std::move(v);
          break;
        }
        auto c = Value::Compare(v, best);
        if (c.has_value() && ((agg.agg == AggFunc::kMin && *c < 0) ||
                              (agg.agg == AggFunc::kMax && *c > 0))) {
          best = std::move(v);
        }
        break;
      }
      case AggFunc::kGroupConcat:
        if (count > 1) concat += agg.agg_separator;
        concat += v.AsString();
        break;
      case AggFunc::kSample:
        if (count == 1) best = std::move(v);
        break;
    }
  }
  switch (agg.agg) {
    case AggFunc::kCount:
      return Value::Int(static_cast<int64_t>(count));
    case AggFunc::kSum:
      return all_int ? Value::Int(isum) : Value::Double(sum);
    case AggFunc::kAvg:
      if (count == 0) return Value::Unbound();
      return Value::Double(sum / static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
    case AggFunc::kSample:
      return best;  // unbound over no values
    case AggFunc::kGroupConcat:
      return Value::String(std::move(concat));
  }
  return Value::Unbound();
}

// ---- GROUP BY on id tuples ------------------------------------------------
//
// A group is a tuple of rendered key values: the N-Triples form of each
// GROUP BY value, "\x01unbound" when unbound. Those strings decide which
// rows share a group, and groups come out in std::map order of the string
// tuples. Each distinct string gets one integer code, rows hash on their
// tuple of codes, and only the finished groups are sorted, by their codes'
// strings. Two ids can render alike (FromTerm/ToTerm canonicalises
// "05"^^xsd:int and "5"^^xsd:integer alike), so codes come from the
// strings, not the ids.

/// Maps rows to key codes, one per GROUP BY expression. A key that reads a
/// single variable, e.g. ?m or YEAR(?d), is evaluated and rendered once per
/// distinct id of that variable; keys reading several variables (or an
/// EXISTS) once per row.
class GroupKeyCoder {
 public:
  GroupKeyCoder(const std::vector<ExprPtr>& group_by, const VarTable& vars) {
    for (const ExprPtr& g : group_by) {
      std::set<std::string> names;
      g->CollectVars(&names);
      int dep = kNoDep;  // reads no variable: one value for every row
      if (g->ContainsExists() || names.size() > 1) {
        dep = kPerRow;
      } else if (names.size() == 1) {
        dep = vars.Find(*names.begin());  // -1 (kNoDep): never bound
      }
      keys_.push_back(Key{CompiledExpr(*g, vars), dep, {}});
    }
  }

  size_t width() const { return keys_.size(); }

  /// Writes the key codes of `row` to code[0 .. width()).
  void Encode(const Binding& row, const EvalContext& ctx, uint32_t* code) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      Key& key = keys_[k];
      if (key.dep == kPerRow) {
        code[k] = CodeOf(key.expr.Eval(row, ctx));
        continue;
      }
      const TermId id =
          key.dep >= 0 && static_cast<size_t>(key.dep) < row.size()
              ? row[key.dep]
              : kNoTermId;
      auto [it, fresh] = key.memo.try_emplace(id, 0);
      if (fresh) it->second = CodeOf(key.expr.Eval(row, ctx));
      code[k] = it->second;
    }
  }

  /// The rendered key value a code stands for.
  const std::string& Rendered(uint32_t code) const { return *rendered_[code]; }

 private:
  static constexpr int kNoDep = -1;
  static constexpr int kPerRow = -2;
  struct Key {
    CompiledExpr expr;
    int dep;  ///< slot the key reads, kNoDep or kPerRow
    std::unordered_map<TermId, uint32_t> memo;  ///< by id of `dep`
  };

  uint32_t CodeOf(const Value& v) {
    std::string text =
        v.is_unbound() ? std::string("\x01unbound") : v.ToTerm().ToNTriples();
    auto [it, fresh] = codes_.try_emplace(
        std::move(text), static_cast<uint32_t>(rendered_.size()));
    if (fresh) rendered_.push_back(&it->first);
    return it->second;
  }

  std::vector<Key> keys_;
  std::unordered_map<std::string, uint32_t> codes_;
  std::vector<const std::string*> rendered_;  ///< by code; keys of codes_
};

/// Open-addressing table from key-code tuples (`width` codes each) to dense
/// group indexes, assigned in order of first appearance.
class GroupTable {
 public:
  explicit GroupTable(size_t width) : width_(width), slots_(16, kEmpty) {}

  uint32_t FindOrAdd(const uint32_t* key) {
    if (2 * (size() + 1) > slots_.size()) Grow();
    size_t h = Hash(key) & (slots_.size() - 1);
    while (true) {
      const uint32_t g = slots_[h];
      if (g == kEmpty) {
        slots_[h] = static_cast<uint32_t>(count_++);
        keys_.insert(keys_.end(), key, key + width_);
        return slots_[h];
      }
      if (std::equal(key, key + width_, keys_.data() + g * width_)) return g;
      h = (h + 1) & (slots_.size() - 1);
    }
  }

  size_t size() const { return count_; }
  const uint32_t* key(size_t g) const { return keys_.data() + g * width_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  size_t Hash(const uint32_t* key) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (size_t i = 0; i < width_; ++i) {
      h = (h ^ key[i]) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
    return static_cast<size_t>(h);
  }

  void Grow() {
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    for (uint32_t g : old) {
      if (g == kEmpty) continue;
      size_t h = Hash(key(g)) & (slots_.size() - 1);
      while (slots_[h] != kEmpty) h = (h + 1) & (slots_.size() - 1);
      slots_[h] = g;
    }
  }

  size_t width_;
  size_t count_ = 0;
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> slots_;
};

/// Engine-level per-query metrics, ticked exactly once per Execute() call
/// (the endpoint layer keeps its own admission/cache metrics — recording
/// here keeps direct Executor use and endpoint use consistent).
void RecordQueryMetrics(const ExecStats& stats, StatusCode code) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("rdfa_queries_total", "Queries executed (any outcome)")
      .Increment();
  reg.GetHistogram("rdfa_query_latency_ms", Histogram::LatencyBoundsMs(),
                   "End-to-end Execute() wall time in milliseconds")
      .Observe(stats.total_ms);
  uint64_t scanned = 0;
  for (size_t rows : stats.rows_scanned) scanned += rows;
  if (scanned > 0) {
    reg.GetCounter("rdfa_rows_scanned_total",
                   "Index rows enumerated by BGP pattern scans")
        .Increment(scanned);
  }
  if (code == StatusCode::kCancelled) {
    reg.GetCounter("rdfa_queries_cancelled_total",
                   "Queries that unwound on cooperative cancellation")
        .Increment();
  } else if (code == StatusCode::kDeadlineExceeded) {
    reg.GetCounter("rdfa_queries_timed_out_total",
                   "Queries that unwound on a tripped deadline")
        .Increment();
  }
}

/// Forward (or backward) BFS over edges labeled `p`, starting at `start`;
/// `start` itself is included only when `reflexive`.
std::set<TermId> Reachable(const rdf::Graph& graph, TermId start, TermId p,
                           bool forward, bool reflexive) {
  std::set<TermId> seen;
  std::vector<TermId> work = {start};
  while (!work.empty()) {
    TermId cur = work.back();
    work.pop_back();
    auto visit = [&](TermId next) {
      if (seen.insert(next).second) work.push_back(next);
    };
    if (forward) {
      graph.ForEachMatch(cur, p, kNoTermId,
                         [&](const rdf::TripleId& t) { visit(t.o); });
    } else {
      graph.ForEachMatch(kNoTermId, p, cur,
                         [&](const rdf::TripleId& t) { visit(t.s); });
    }
  }
  // Without `reflexive`, `start` is a member only when a cycle reaches it
  // (it is never seeded into `seen`).
  if (reflexive) seen.insert(start);
  return seen;
}

}  // namespace

Result<std::vector<Binding>> Executor::EvalPattern(const GraphPattern& pattern,
                                                   VarTable* vars,
                                                   std::vector<Binding> seed) {
  std::vector<Binding> rows = std::move(seed);
  if (rows.empty()) rows.push_back(Binding());

  // Filters apply to the whole group (SPARQL semantics): hoist them. A
  // filter may still run early — as soon as every variable it mentions is
  // *certainly* bound (bound in every row), its verdict per row is final,
  // so early pruning is equivalent and cheaper (ablation knob
  // `push_filters_`).
  struct PendingFilter {
    const PatternElement* el;
    std::set<std::string> vars;
    bool done = false;
  };
  // `body` keeps every element in source order (filters included, so a
  // ready filter splits a join run and prunes early); `filters` tracks the
  // pending set.
  std::vector<const PatternElement*> body;
  std::vector<PendingFilter> filters;
  for (const PatternElement& el : pattern.elements) {
    if (el.kind == PatternElement::Kind::kFilter) {
      PendingFilter f;
      f.el = &el;
      if (el.filter != nullptr) el.filter->CollectVars(&f.vars);
      filters.push_back(std::move(f));
    }
    body.push_back(&el);
  }
  std::set<std::string> certainly_bound;

  auto grow_rows = [&]() {
    for (Binding& b : rows) {
      if (b.size() < vars->size()) b.resize(vars->size(), kNoTermId);
    }
  };

  // EXISTS { ... } inside filters joins the probe pattern against the
  // current row. A VarTable copy isolates variables the probe introduces.
  std::function<bool(const GraphPattern&, const Binding&)> exists_fn =
      [this, vars](const GraphPattern& probe, const Binding& row) {
        VarTable local = *vars;
        auto res = EvalPattern(probe, &local, {row});
        return res.ok() && !res.value().empty();
      };
  EvalContext ctx{.terms = &graph_->terms(), .vars = vars,
                  .exists_eval = &exists_fn};

  // Applies every not-yet-run filter whose variables are all certainly
  // bound. EXISTS filters always wait for the end (their subpattern scope
  // may mention anything). Each filter is lowered when it runs, against the
  // slots allocated by then.
  auto apply_ready_filters = [&](bool at_end) {
    std::optional<TraceSpan> span;
    std::chrono::steady_clock::time_point start;
    for (PendingFilter& f : filters) {
      if (f.done) continue;
      if (!at_end) {
        if (!push_filters_ || f.el->filter->ContainsExists()) continue;
        bool ready = true;
        for (const std::string& v : f.vars) {
          if (!certainly_bound.count(v)) {
            ready = false;
            break;
          }
        }
        if (!ready) continue;
      }
      if (!span.has_value()) {
        start = std::chrono::steady_clock::now();
        span.emplace(ctx_.tracer(), "filter");
        span->Arg("input_rows", static_cast<uint64_t>(rows.size()));
      }
      const CompiledExpr filter(*f.el->filter, *vars);
      size_t kept = 0;
      for (size_t r = 0; r < rows.size(); ++r) {
        auto b = filter.Test(rows[r], ctx);
        if (!b.has_value() || !*b) continue;
        if (kept != r) rows[kept] = std::move(rows[r]);
        ++kept;
      }
      rows.resize(kept);
      f.done = true;
    }
    if (span.has_value()) {
      span->Arg("output_rows", static_cast<uint64_t>(rows.size()));
      stats_.filter_ms += MsSince(start);
    }
  };

  size_t i = 0;
  while (i < body.size()) {
    RDFA_RETURN_NOT_OK(ctx_.Check("pattern-eval"));
    const PatternElement& el = *body[i];
    switch (el.kind) {
      case PatternElement::Kind::kTriple: {
        // Gather the contiguous run of triples and join them together.
        std::vector<CompiledPattern> compiled;
        std::set<std::string> run_vars;
        while (i < body.size() &&
               body[i]->kind == PatternElement::Kind::kTriple) {
          const TriplePattern& tp = body[i]->triple;
          for (const NodePattern* n : {&tp.s, &tp.p, &tp.o}) {
            if (n->is_var) run_vars.insert(n->var);
          }
          compiled.push_back(CompileTriple(tp, vars, *graph_));
          ++i;
        }
        grow_rows();
        {
          auto start = std::chrono::steady_clock::now();
          JoinOptions jopts;
          jopts.threads = threads_;
          jopts.stats = &stats_;
          jopts.ctx = &ctx_;
          jopts.strategy = join_strategy_;
          jopts.use_dp = use_dp_;
          // A filter runs between pipeline steps once the steps so far
          // bind its variables, so later steps extend fewer rows.
          if (push_filters_) {
            jopts.after_step = [&](const std::set<int>& bound) {
              for (int s : bound) certainly_bound.insert(vars->names()[s]);
              apply_ready_filters(false);
            };
          }
          // Plan-cache hookup: BGP join runs are numbered in evaluation
          // order (deterministic for a fixed AST + graph), so a replayed
          // query consumes the cached order recorded at the same position.
          const size_t seq = bgp_seq_++;
          std::vector<int> replay;
          if (replay_orders_ != nullptr && seq < replay_orders_->size()) {
            replay = (*replay_orders_)[seq];
            jopts.replay_order = &replay;
          }
          std::vector<int> chosen;
          if (capture_orders_ != nullptr && seq < kMaxCachedBgpOrders) {
            jopts.capture_order = &chosen;
          }
          // Secondary-index builds and filters inside the join are
          // charged to index_build_ms and filter_ms, not to bgp_ms.
          const double build_before = stats_.index_build_ms;
          const double filter_before = stats_.filter_ms;
          Status join_status =
              JoinBgp(*graph_, std::move(compiled), vars->size(),
                      reorder_joins_, jopts, &rows);
          if (jopts.capture_order != nullptr) {
            if (capture_orders_->size() <= seq) {
              capture_orders_->resize(seq + 1);
            }
            (*capture_orders_)[seq] = std::move(chosen);
          }
          stats_.bgp_ms += MsSince(start) -
                           (stats_.index_build_ms - build_before) -
                           (stats_.filter_ms - filter_before);
          RDFA_RETURN_NOT_OK(join_status);
        }
        certainly_bound.insert(run_vars.begin(), run_vars.end());
        apply_ready_filters(false);
        continue;
      }
      case PatternElement::Kind::kOptional: {
        std::vector<Binding> next;
        for (Binding& row : rows) {
          RDFA_ASSIGN_OR_RETURN(std::vector<Binding> extended,
                                EvalPattern(*el.child, vars, {row}));
          if (extended.empty()) {
            next.push_back(std::move(row));
          } else {
            for (Binding& e : extended) next.push_back(std::move(e));
          }
        }
        rows = std::move(next);
        grow_rows();
        break;
      }
      case PatternElement::Kind::kUnion: {
        RDFA_ASSIGN_OR_RETURN(std::vector<Binding> lhs,
                              EvalPattern(*el.child, vars, rows));
        RDFA_ASSIGN_OR_RETURN(std::vector<Binding> rhs,
                              EvalPattern(*el.child2, vars, rows));
        rows = std::move(lhs);
        for (Binding& b : rhs) rows.push_back(std::move(b));
        grow_rows();
        break;
      }
      case PatternElement::Kind::kBind: {
        int slot = vars->IdOf(el.bind_var);
        grow_rows();
        const CompiledExpr bind(*el.bind_expr, *vars);
        for (Binding& row : rows) {
          Value v = bind.Eval(row, ctx);
          if (!v.is_unbound()) {
            row[slot] = graph_->terms().Intern(v.ToTerm());
          }
        }
        certainly_bound.insert(el.bind_var);
        apply_ready_filters(false);
        break;
      }
      case PatternElement::Kind::kValues: {
        int slot = vars->IdOf(el.values_var);
        grow_rows();
        std::vector<TermId> ids;
        ids.reserve(el.values_terms.size());
        for (const Term& t : el.values_terms) {
          ids.push_back(graph_->terms().Intern(t));
        }
        std::vector<Binding> next;
        for (const Binding& row : rows) {
          if (row[slot] != kNoTermId) {
            // Already bound: keep only if listed.
            if (std::find(ids.begin(), ids.end(), row[slot]) != ids.end()) {
              next.push_back(row);
            }
            continue;
          }
          for (TermId id : ids) {
            Binding extended = row;
            extended[slot] = id;
            next.push_back(std::move(extended));
          }
        }
        rows = std::move(next);
        certainly_bound.insert(el.values_var);
        apply_ready_filters(false);
        break;
      }
      case PatternElement::Kind::kSubSelect: {
        RDFA_ASSIGN_OR_RETURN(ResultTable sub, Select(*el.sub_select));
        // Hash-join on shared variable names.
        std::vector<int> slots;
        slots.reserve(sub.num_columns());
        for (const std::string& col : sub.columns()) {
          slots.push_back(vars->IdOf(col));
        }
        grow_rows();
        // Subquery cells index this graph's dictionary already; only
        // computed cells need interning.
        std::vector<std::vector<TermId>> sub_rows;
        sub_rows.reserve(sub.num_rows());
        for (size_t r = 0; r < sub.num_rows(); ++r) {
          std::vector<TermId> ids;
          ids.reserve(sub.num_columns());
          for (size_t c = 0; c < sub.num_columns(); ++c) {
            const ResultTable::Cell cell = sub.cell(r, c);
            ids.push_back(cell == ResultTable::kUnboundCell ? kNoTermId
                          : ResultTable::IsOverflow(cell)
                              ? graph_->terms().Intern(sub.term(cell))
                              : cell);
          }
          sub_rows.push_back(std::move(ids));
        }
        std::vector<Binding> next;
        for (const Binding& row : rows) {
          for (const auto& srow : sub_rows) {
            Binding extended = row;
            bool ok = true;
            for (size_t c = 0; c < slots.size(); ++c) {
              int slot = slots[c];
              if (srow[c] == kNoTermId) continue;
              if (extended[slot] != kNoTermId && extended[slot] != srow[c]) {
                ok = false;
                break;
              }
              extended[slot] = srow[c];
            }
            if (ok) next.push_back(std::move(extended));
          }
        }
        rows = std::move(next);
        for (const std::string& col : sub.columns()) {
          certainly_bound.insert(col);
        }
        apply_ready_filters(false);
        break;
      }
      case PatternElement::Kind::kMinus: {
        // Keeps rows with no compatible solution in the child pattern
        // (evaluated seeded with the row, i.e. NOT-EXISTS-style semantics).
        std::vector<Binding> kept;
        for (Binding& row : rows) {
          RDFA_ASSIGN_OR_RETURN(std::vector<Binding> matched,
                                EvalPattern(*el.child, vars, {row}));
          if (matched.empty()) kept.push_back(std::move(row));
        }
        rows = std::move(kept);
        grow_rows();
        break;
      }
      case PatternElement::Kind::kTransPath: {
        TraceSpan path_span(ctx_.tracer(), "path-expansion");
        path_span.Arg("input_rows", static_cast<uint64_t>(rows.size()));
        TermId pid = el.triple.p.is_var
                         ? kNoTermId
                         : graph_->terms().Find(el.triple.p.term);
        int s_var = el.triple.s.is_var ? vars->IdOf(el.triple.s.var) : -1;
        int o_var = el.triple.o.is_var ? vars->IdOf(el.triple.o.var) : -1;
        TermId s_const = el.triple.s.is_var
                             ? kNoTermId
                             : graph_->terms().Find(el.triple.s.term);
        TermId o_const = el.triple.o.is_var
                             ? kNoTermId
                             : graph_->terms().Find(el.triple.o.term);
        grow_rows();
        std::vector<Binding> next;
        for (const Binding& row : rows) {
          // BFS expansions can dwarf everything else on a pathological
          // path query: poll per source row.
          if (ctx_.ShouldStop()) return ctx_.Check("path-expansion");
          TermId s = s_var >= 0 && row[s_var] != kNoTermId ? row[s_var]
                                                           : s_const;
          TermId o = o_var >= 0 && row[o_var] != kNoTermId ? row[o_var]
                                                           : o_const;
          auto emit = [&](TermId sv, TermId ov) {
            Binding extended = row;
            if (s_var >= 0) extended[s_var] = sv;
            if (o_var >= 0) extended[o_var] = ov;
            next.push_back(std::move(extended));
          };
          if (pid == kNoTermId) {
            // Property absent: only the reflexive case can match.
            if (el.path_reflexive && s != kNoTermId) {
              if (o == kNoTermId || o == s) emit(s, s);
            }
            continue;
          }
          if (s != kNoTermId) {
            std::set<TermId> reach =
                Reachable(*graph_, s, pid, /*forward=*/true,
                          el.path_reflexive);
            if (o != kNoTermId) {
              if (reach.count(o)) emit(s, o);
            } else {
              for (TermId r : reach) emit(s, r);
            }
          } else if (o != kNoTermId) {
            std::set<TermId> reach =
                Reachable(*graph_, o, pid, /*forward=*/false,
                          el.path_reflexive);
            for (TermId r : reach) emit(r, o);
          } else {
            // Both endpoints free: expand from every subject of p.
            std::set<TermId> starts;
            graph_->ForEachMatch(kNoTermId, pid, kNoTermId,
                                 [&](const rdf::TripleId& t) {
                                   starts.insert(t.s);
                                   if (el.path_reflexive) starts.insert(t.o);
                                 });
            for (TermId start : starts) {
              for (TermId r : Reachable(*graph_, start, pid, true,
                                        el.path_reflexive)) {
                emit(start, r);
              }
            }
          }
        }
        rows = std::move(next);
        if (el.triple.s.is_var) certainly_bound.insert(el.triple.s.var);
        if (el.triple.o.is_var) certainly_bound.insert(el.triple.o.var);
        apply_ready_filters(false);
        break;
      }
      case PatternElement::Kind::kFilter:
        // Already pending; at its source position it may be ready to run.
        apply_ready_filters(false);
        break;
    }
    ++i;
  }

  grow_rows();
  apply_ready_filters(/*at_end=*/true);
  return rows;
}

Result<ResultTable> Executor::Select(const SelectQuery& query) {
  VarTable vars;
  RDFA_ASSIGN_OR_RETURN(std::vector<Binding> rows,
                        EvalPattern(query.where, &vars, {}));

  EvalContext ctx{.terms = &graph_->terms(), .vars = &vars};

  // Resolve the projection list.
  std::vector<Projection> projections = query.projections;
  if (query.select_all) {
    for (const std::string& name : vars.names()) {
      if (!IsInternalVarName(name)) {
        Projection p;
        p.var = name;
        projections.push_back(std::move(p));
      }
    }
  }

  bool has_aggregate = !query.group_by.empty() || !query.having.empty();
  for (const Projection& p : projections) {
    if (p.expr != nullptr && p.expr->ContainsAggregate()) has_aggregate = true;
  }

  ResultTable out(
      [&] {
        std::vector<std::string> cols;
        cols.reserve(projections.size());
        for (const Projection& p : projections) cols.push_back(p.var);
        return cols;
      }(),
      graph_->shared_terms());

  // All aggregate nodes used anywhere downstream; a group's values are held
  // parallel to this list.
  std::vector<const Expr*> agg_nodes;
  if (has_aggregate) {
    for (const Projection& p : projections) {
      if (p.expr != nullptr) CollectAggregates(*p.expr, &agg_nodes);
    }
    for (const ExprPtr& h : query.having) CollectAggregates(*h, &agg_nodes);
    for (const OrderKey& k : query.order_by) {
      CollectAggregates(*k.expr, &agg_nodes);
    }
  }

  // Rows that survive to ordering: output cells + context for ORDER BY.
  // Cells stay dictionary ids (or kUnboundCell); a computed value lives in
  // the row's own `computed` list, named by kOverflowBit | its index there,
  // until the row is appended to `out` — so rows dropped by DISTINCT or
  // LIMIT never copy a term anywhere.
  using Cell = ResultTable::Cell;
  struct OutRow {
    std::vector<Cell> cells;
    std::vector<Term> computed;
    Binding binding;
    std::vector<Value> agg_values;  ///< parallel to agg_nodes
  };
  std::vector<OutRow> out_rows;
  const rdf::TermTable& dict = graph_->terms();
  auto row_ctx = [&](const OutRow& r) {
    EvalContext rctx = ctx;
    rctx.agg_nodes = &agg_nodes;
    rctx.agg_values = r.agg_values.data();
    return rctx;
  };
  auto push_computed = [](OutRow* r, Term t) {
    r->computed.push_back(std::move(t));
    r->cells.push_back(ResultTable::kOverflowBit |
                       static_cast<Cell>(r->computed.size() - 1));
  };
  auto cell_term = [&](const OutRow& r, Cell c) -> const Term& {
    if (c == ResultTable::kUnboundCell) return ResultTable::UnboundTerm();
    if (ResultTable::IsOverflow(c)) {
      return r.computed[c & ~ResultTable::kOverflowBit];
    }
    return dict.Get(c);
  };
  std::vector<int> proj_slots;
  std::vector<std::optional<CompiledExpr>> proj_exprs;
  proj_slots.reserve(projections.size());
  proj_exprs.reserve(projections.size());
  for (const Projection& p : projections) {
    proj_slots.push_back(p.expr == nullptr ? vars.Find(p.var) : -1);
    proj_exprs.emplace_back();
    if (p.expr != nullptr) proj_exprs.back().emplace(*p.expr, vars);
  }
  auto project = [&](const Binding& b, const EvalContext& ectx, OutRow* r) {
    r->cells.reserve(projections.size());
    for (size_t i = 0; i < projections.size(); ++i) {
      if (proj_exprs[i].has_value()) {
        Value v = proj_exprs[i]->Eval(b, ectx);
        if (v.is_unbound()) {
          r->cells.push_back(ResultTable::kUnboundCell);
        } else {
          push_computed(r, v.ToTerm());
        }
        continue;
      }
      const int slot = proj_slots[i];
      const TermId id = slot >= 0 && static_cast<size_t>(slot) < b.size()
                            ? b[slot]
                            : kNoTermId;
      if (id == kNoTermId) {
        r->cells.push_back(ResultTable::kUnboundCell);
      } else if (ResultTable::IsOverflow(id)) {
        push_computed(r, dict.Get(id));  // an id past the cell id space
      } else {
        r->cells.push_back(id);
      }
    }
  };

  if (has_aggregate) {
    auto agg_start = std::chrono::steady_clock::now();
    TraceSpan agg_span(ctx_.tracer(), "group-aggregate");
    agg_span.Arg("input_rows", static_cast<uint64_t>(rows.size()));
    // Assign every row its group (see GroupKeyCoder); without GROUP BY all
    // rows, or none, form the one group.
    GroupKeyCoder coder(query.group_by, vars);
    GroupTable table(coder.width());
    std::vector<uint32_t> key(coder.width());
    std::vector<uint32_t> row_group(rows.size());
    if (query.group_by.empty()) table.FindOrAdd(key.data());
    for (size_t r = 0; r < rows.size(); ++r) {
      if ((r + 1) % kParallelRowThreshold == 0 && ctx_.ShouldStop()) {
        return ctx_.Check("group-aggregate");
      }
      coder.Encode(rows[r], ctx, key.data());
      row_group[r] = table.FindOrAdd(key.data());
    }
    // Each group's rows, in input order, as one slice of `members`.
    const size_t n_groups = table.size();
    std::vector<uint32_t> group_begin(n_groups + 1, 0);
    for (uint32_t g : row_group) ++group_begin[g + 1];
    for (size_t g = 0; g < n_groups; ++g) {
      group_begin[g + 1] += group_begin[g];
    }
    std::vector<uint32_t> members(rows.size());
    {
      std::vector<uint32_t> fill(group_begin.begin(), group_begin.end() - 1);
      for (size_t r = 0; r < rows.size(); ++r) {
        members[fill[row_group[r]]++] = static_cast<uint32_t>(r);
      }
    }
    // Output order: the finished groups sorted by their rendered keys.
    std::vector<uint32_t> group_order(n_groups);
    std::iota(group_order.begin(), group_order.end(), 0);
    std::sort(group_order.begin(), group_order.end(),
              [&](uint32_t a, uint32_t b) {
                const uint32_t* ka = table.key(a);
                const uint32_t* kb = table.key(b);
                for (size_t i = 0; i < coder.width(); ++i) {
                  if (ka[i] == kb[i]) continue;
                  return coder.Rendered(ka[i]) < coder.Rendered(kb[i]);
                }
                return false;
              });

    std::vector<std::optional<CompiledExpr>> agg_args;
    agg_args.reserve(agg_nodes.size());
    for (const Expr* node : agg_nodes) {
      agg_args.emplace_back();
      if (!node->agg_star) agg_args.back().emplace(*node->args[0], vars);
    }
    std::vector<CompiledExpr> having;
    having.reserve(query.having.size());
    for (const ExprPtr& h : query.having) having.emplace_back(*h, vars);
    // COUNT(DISTINCT *) tells solutions apart by the in-scope variables.
    std::vector<int> scope;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (!IsInternalVarName(vars.names()[i])) {
        scope.push_back(static_cast<int>(i));
      }
    }

    // Aggregate + HAVING per group. Groups are independent, so morsels of
    // groups run in parallel; results land in pre-sized slots and survivors
    // are appended in output order — deterministic. Each group's rows are
    // read in input order, which keeps order-sensitive aggregates
    // (floating-point SUM, GROUP_CONCAT) byte-identical to a serial pass.
    struct GroupOut {
      OutRow row;
      bool keep = false;
    };
    std::vector<GroupOut> gout(n_groups);
    auto compute_group = [&](size_t gi) {
      const uint32_t g = group_order[gi];
      const std::span<const uint32_t> group_rows(
          members.data() + group_begin[g], group_begin[g + 1] - group_begin[g]);
      Binding rep = group_rows.empty() ? Binding(vars.size(), kNoTermId)
                                       : rows[group_rows.front()];
      std::vector<Value> agg_values;
      agg_values.reserve(agg_nodes.size());
      for (size_t a = 0; a < agg_nodes.size(); ++a) {
        agg_values.push_back(ComputeAggregate(
            *agg_nodes[a], agg_args[a].has_value() ? &*agg_args[a] : nullptr,
            rows, group_rows, scope, ctx));
      }
      EvalContext gctx = ctx;
      gctx.agg_nodes = &agg_nodes;
      gctx.agg_values = agg_values.data();
      for (const CompiledExpr& h : having) {
        auto b = h.Test(rep, gctx);
        if (!b.has_value() || !*b) return;
      }
      GroupOut& go = gout[gi];
      go.keep = true;
      go.row.binding = std::move(rep);
      go.row.agg_values = std::move(agg_values);
    };
    if (threads_ > 1 && n_groups >= 2) {
      auto morsels = Morsels(n_groups,
                             static_cast<size_t>(threads_) * kMorselsPerThread,
                             /*min_grain=*/1);
      ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
        auto [lo, hi] = morsels[m];
        for (size_t gi = lo; gi < hi; ++gi) {
          // One counted checkpoint per group: a cancel mid-aggregate trips
          // here, and the per-group check count matches the serial path so
          // deterministic-cancellation tests see one sequence.
          if (!ctx_.Check("group-aggregate").ok()) return;
          compute_group(gi);
        }
      });
      RDFA_RETURN_NOT_OK(ctx_.Check("group-aggregate"));
      stats_.morsel_count += morsels.size();
    } else {
      for (size_t gi = 0; gi < n_groups; ++gi) {
        RDFA_RETURN_NOT_OK(ctx_.Check("group-aggregate"));
        compute_group(gi);
      }
    }
    for (GroupOut& go : gout) {
      if (go.keep) out_rows.push_back(std::move(go.row));
    }
    std::vector<Binding>().swap(rows);  // the groups kept what they need
    stats_.group_agg_ms += MsSince(agg_start);
    agg_span.Arg("output_rows", static_cast<uint64_t>(out_rows.size()));
  }

  // Projection: ids are copied straight out of the bindings; only
  // expressions materialize terms. Under aggregation it runs over the
  // surviving groups' representative rows.
  {
    auto proj_start = std::chrono::steady_clock::now();
    TraceSpan proj_span(ctx_.tracer(), "projection");
    proj_span.Arg("input_rows", static_cast<uint64_t>(
                                    has_aggregate ? out_rows.size()
                                                  : rows.size()));
    if (has_aggregate) {
      for (OutRow& r : out_rows) project(r.binding, row_ctx(r), &r);
    } else {
      out_rows.resize(rows.size());
      auto project_row = [&](size_t r) {
        project(rows[r], ctx, &out_rows[r]);
        out_rows[r].binding = std::move(rows[r]);
      };
      if (threads_ > 1 && rows.size() >= kParallelRowThreshold) {
        auto morsels = Morsels(rows.size(),
                               static_cast<size_t>(threads_) * kMorselsPerThread,
                               kMinMorselRows);
        ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
          if (ctx_.ShouldStop()) return;
          auto [lo, hi] = morsels[m];
          for (size_t r = lo; r < hi; ++r) project_row(r);
        });
        RDFA_RETURN_NOT_OK(ctx_.Check("projection"));
        stats_.morsel_count += morsels.size();
      } else {
        for (size_t r = 0; r < rows.size(); ++r) {
          if ((r + 1) % kParallelRowThreshold == 0 && ctx_.ShouldStop()) {
            return ctx_.Check("projection");
          }
          project_row(r);
        }
      }
    }
    stats_.projection_ms += MsSince(proj_start);
    proj_span.Arg("output_rows", static_cast<uint64_t>(out_rows.size()));
  }

  // ORDER BY.
  if (!query.order_by.empty()) {
    std::vector<CompiledExpr> order_exprs;
    order_exprs.reserve(query.order_by.size());
    for (const OrderKey& k : query.order_by) {
      order_exprs.emplace_back(*k.expr, vars);
    }
    auto key_value = [&](const OutRow& r, size_t i) -> Value {
      const OrderKey& k = query.order_by[i];
      // An alias referring to an output column takes precedence.
      if (k.expr->kind == Expr::Kind::kVar) {
        int col = out.ColumnIndex(k.expr->var);
        if (col >= 0 && vars.Find(k.expr->var) < 0) {
          const Term& t = cell_term(r, r.cells[col]);
          return ResultTable::IsUnbound(t) ? Value::Unbound()
                                           : Value::FromTerm(t);
        }
      }
      return order_exprs[i].Eval(r.binding, row_ctx(r));
    };
    std::stable_sort(out_rows.begin(), out_rows.end(),
                     [&](const OutRow& a, const OutRow& b) {
                       for (size_t i = 0; i < query.order_by.size(); ++i) {
                         const bool ascending = query.order_by[i].ascending;
                         Value va = key_value(a, i);
                         Value vb = key_value(b, i);
                         if (va.is_unbound() && vb.is_unbound()) continue;
                         if (va.is_unbound()) return ascending;
                         if (vb.is_unbound()) return !ascending;
                         auto c = Value::Compare(va, vb);
                         if (!c.has_value() || *c == 0) continue;
                         return ascending ? *c < 0 : *c > 0;
                       }
                       return false;
                     });
  }

  // DISTINCT, on id tuples: one dictionary holds each term once, so equal
  // ids are equal terms. A computed cell may equal a dictionary term, so
  // once any row holds one, every row is keyed by its rendered terms.
  if (query.distinct) {
    bool rendered = false;
    for (const OutRow& r : out_rows) {
      for (Cell c : r.cells) rendered = rendered || ResultTable::IsOverflow(c);
    }
    std::unordered_set<std::string> seen;
    size_t kept = 0;
    for (size_t i = 0; i < out_rows.size(); ++i) {
      const OutRow& r = out_rows[i];
      std::string key;
      if (rendered) {
        for (Cell c : r.cells) {
          cell_term(r, c).AppendNTriples(&key);
          key += '\t';
        }
      } else {
        key.assign(reinterpret_cast<const char*>(r.cells.data()),
                   r.cells.size() * sizeof(Cell));
      }
      if (!seen.insert(std::move(key)).second) continue;
      if (kept != i) out_rows[kept] = std::move(out_rows[i]);
      ++kept;
    }
    out_rows.resize(kept);
  }

  // OFFSET / LIMIT. A negative offset (defensive: the parser rejects them)
  // clamps to 0 rather than wrapping through the size_t cast.
  size_t begin = query.offset > 0
                     ? std::min<size_t>(static_cast<size_t>(query.offset),
                                        out_rows.size())
                     : 0;
  size_t end = out_rows.size();
  if (query.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(query.limit));
  }
  out.Reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    OutRow& row = out_rows[r];
    for (Cell& c : row.cells) {
      if (ResultTable::IsOverflow(c)) {
        c = out.StoreTerm(
            std::move(row.computed[c & ~ResultTable::kOverflowBit]));
      }
    }
    out.AddCellRow(row.cells);
  }
  return out;
}

Result<bool> Executor::Ask(const AskQuery& query) {
  VarTable vars;
  RDFA_ASSIGN_OR_RETURN(std::vector<Binding> rows,
                        EvalPattern(query.where, &vars, {}));
  return !rows.empty();
}

Result<size_t> Executor::Construct(const ConstructQuery& query,
                                   rdf::Graph* out) {
  VarTable vars;
  RDFA_ASSIGN_OR_RETURN(std::vector<Binding> rows,
                        EvalPattern(query.where, &vars, {}));
  size_t added = 0;
  for (const Binding& row : rows) {
    for (const TriplePattern& tp : query.construct_template) {
      auto instantiate = [&](const NodePattern& n, Term* t) {
        if (!n.is_var) {
          *t = n.term;
          return true;
        }
        int slot = vars.Find(n.var);
        if (slot < 0 || static_cast<size_t>(slot) >= row.size() ||
            row[slot] == kNoTermId) {
          return false;
        }
        *t = graph_->terms().Get(row[slot]);
        return true;
      };
      Term s, p, o;
      if (!instantiate(tp.s, &s) || !instantiate(tp.p, &p) ||
          !instantiate(tp.o, &o)) {
        continue;
      }
      if (s.is_literal() || !p.is_iri()) continue;
      if (out->Add(s, p, o)) ++added;
    }
  }
  return added;
}

Result<size_t> Executor::Describe(const DescribeQuery& query,
                                  rdf::Graph* out) {
  std::set<TermId> subjects;
  for (const Term& t : query.resources) {
    TermId id = graph_->terms().Find(t);
    if (id != kNoTermId) subjects.insert(id);
  }
  if (!query.vars.empty()) {
    VarTable vars;
    RDFA_ASSIGN_OR_RETURN(std::vector<Binding> rows,
                          EvalPattern(query.where, &vars, {}));
    for (const std::string& name : query.vars) {
      int slot = vars.Find(name);
      if (slot < 0) continue;
      for (const Binding& row : rows) {
        if (static_cast<size_t>(slot) < row.size() &&
            row[slot] != kNoTermId) {
          subjects.insert(row[slot]);
        }
      }
    }
  }
  size_t added = 0;
  for (TermId s : subjects) {
    added += rdf::ConciseBoundedDescription(*graph_, s, out);
  }
  return added;
}

Result<ResultTable> Executor::Execute(const ParsedQuery& query) {
  stats_.Reset();
  stats_.threads = threads_;
  bgp_seq_ = 0;
  auto total_start = std::chrono::steady_clock::now();
  TraceSpan exec_span(ctx_.tracer(), "execute");
  exec_span.Arg("threads", static_cast<int64_t>(threads_));

  // Zero-deadline (or already-cancelled) fast fail: no work is admitted at
  // all, mirroring a serving stack rejecting a request whose budget is
  // already spent. Stats still record the run (threads, ~0ms, aborted).
  {
    Status admit = ctx_.Check("admission");
    if (!admit.ok()) {
      stats_.aborted = true;
      stats_.abort_stage =
          ctx_.trip_stage() != nullptr ? ctx_.trip_stage() : "admission";
      stats_.total_ms = MsSince(total_start);
      exec_span.Arg("aborted", true);
      exec_span.Arg("abort_stage", stats_.abort_stage);
      RecordQueryMetrics(stats_, admit.code());
      return admit;
    }
  }

  // Eager first-touch index build: done here, once, so (a) its cost shows
  // up as index_build_ms rather than inside the first pattern scan, and
  // (b) parallel workers only ever see a clean index.
  auto freeze_start = std::chrono::steady_clock::now();
  {
    TraceSpan freeze_span(ctx_.tracer(), "index-build");
    graph_->Freeze();
  }
  stats_.index_build_ms += MsSince(freeze_start);

  // Mapped-backend decode accounting: snapshot the view's relaxed counters
  // around the dispatch so the per-query deltas land in the trace and the
  // global rdfa_mmap_* counters. Reads only; never affects results.
  const rdf::MappedGraphView* mapped = graph_->mapped();
  rdf::MappedGraphView::DecodeCounters mm_before{};
  if (mapped != nullptr) mm_before = mapped->decode_counters();

  Result<ResultTable> result = [&]() -> Result<ResultTable> {
    switch (query.form) {
      case ParsedQuery::Form::kSelect:
        return Select(query.select);
      case ParsedQuery::Form::kAsk: {
        RDFA_ASSIGN_OR_RETURN(bool b, Ask(query.ask));
        ResultTable t({"ask"});
        t.AddRow({Term::Boolean(b)});
        return t;
      }
      case ParsedQuery::Form::kConstruct:
        return Status::InvalidArgument(
            "CONSTRUCT queries need an output graph; use Executor::Construct");
      case ParsedQuery::Form::kDescribe:
        return Status::InvalidArgument(
            "DESCRIBE queries need an output graph; use Executor::Describe");
    }
    return Status::Internal("unknown query form");
  }();
  if (mapped != nullptr) {
    const rdf::MappedGraphView::DecodeCounters mm = mapped->decode_counters();
    const uint64_t key_blocks = mm.key_blocks_decoded - mm_before.key_blocks_decoded;
    const uint64_t term_blocks =
        mm.term_blocks_decoded - mm_before.term_blocks_decoded;
    const uint64_t dict_lookups = mm.dict_lookups - mm_before.dict_lookups;
    const uint64_t blocks_skipped = mm.blocks_skipped - mm_before.blocks_skipped;
    {
      TraceSpan decode_span(ctx_.tracer(), "mmap-decode");
      decode_span.Arg("key_blocks", key_blocks);
      decode_span.Arg("term_blocks", term_blocks);
      decode_span.Arg("dict_lookups", dict_lookups);
      decode_span.Arg("blocks_skipped", blocks_skipped);
    }
    auto& reg = MetricsRegistry::Global();
    reg.GetCounter("rdfa_mmap_key_blocks_decoded_total",
                   "Mapped-snapshot permutation key blocks decoded")
        .Increment(key_blocks);
    reg.GetCounter("rdfa_mmap_term_blocks_decoded_total",
                   "Mapped-snapshot dictionary term blocks decoded")
        .Increment(term_blocks);
    reg.GetCounter("rdfa_mmap_dict_lookups_total",
                   "Mapped-snapshot dictionary term lookups")
        .Increment(dict_lookups);
    reg.GetCounter("rdfa_mmap_blocks_skipped_total",
                   "Mapped-snapshot permutation blocks skipped via SeekGE")
        .Increment(blocks_skipped);
  }
  stats_.total_ms = MsSince(total_start);
  StatusCode code = result.status().code();
  if (code == StatusCode::kDeadlineExceeded || code == StatusCode::kCancelled) {
    stats_.aborted = true;
    if (ctx_.trip_stage() != nullptr) stats_.abort_stage = ctx_.trip_stage();
  }
  exec_span.Arg("aborted", stats_.aborted);
  if (stats_.aborted) exec_span.Arg("abort_stage", stats_.abort_stage);
  if (result.ok()) {
    exec_span.Arg("rows", static_cast<uint64_t>(result.value().num_rows()));
  }
  RecordQueryMetrics(stats_, code);
  return result;
}

std::string Executor::ExplainJson(const ParsedQuery& query) {
  graph_->Freeze();
  const GraphPattern* where = &query.select.where;
  const char* form = "select";
  switch (query.form) {
    case ParsedQuery::Form::kSelect:
      break;
    case ParsedQuery::Form::kAsk:
      where = &query.ask.where;
      form = "ask";
      break;
    case ParsedQuery::Form::kConstruct:
      where = &query.construct.where;
      form = "construct";
      break;
    case ParsedQuery::Form::kDescribe:
      where = &query.describe.where;
      form = "describe";
      break;
  }
  std::string out = "{\"form\":\"";
  out += form;
  out += "\",\"strategy\":\"";
  out += join_strategy_ == JoinStrategy::kNestedLoop ? "nested-loop"
                                                     : "adaptive";
  out += "\",\"use_dp\":";
  out += use_dp_ ? "true" : "false";
  out += ",\"threads\":";
  out += std::to_string(threads_);
  out += ",\"backend\":\"";
  out += graph_->mapped() != nullptr ? "mmap" : "heap";
  out += "\",\"bgps\":[";

  JoinOptions opts;
  opts.strategy = join_strategy_;
  opts.use_dp = use_dp_;
  VarTable vars;
  bool first = true;
  const auto& body = where->elements;
  size_t i = 0;
  while (i < body.size()) {
    if (body[i].kind != PatternElement::Kind::kTriple) {
      ++i;
      continue;
    }
    std::vector<CompiledPattern> compiled;
    while (i < body.size() && body[i].kind == PatternElement::Kind::kTriple) {
      compiled.push_back(CompileTriple(body[i].triple, &vars, *graph_));
      ++i;
    }
    const std::vector<int> order =
        PlanBgpOrder(*graph_, compiled, opts, reorder_joins_);
    std::vector<CompiledPattern> ordered;
    ordered.reserve(order.size());
    bool impossible = false;
    for (int idx : order) {
      impossible = impossible || compiled[idx].impossible;
      ordered.push_back(compiled[idx]);
    }
    BgpPlan plan = AnnotateBgpPlan(*graph_, ordered);
    plan.used_dp =
        opts.use_dp && compiled.size() > 1 && compiled.size() <= kMaxDpPatterns;
    if (!first) out += ",";
    first = false;
    if (impossible) {
      // A constant term absent from the graph: the run matches nothing.
      // Keep the plan shape but flag it so EXPLAIN readers see the short
      // circuit Execute() would take.
      std::string plan_json = plan.ToJson(order);
      out += "{\"impossible\":true,";
      out += plan_json.substr(1);
    } else {
      out += plan.ToJson(order);
    }
  }
  out += "]}";
  return out;
}

Result<Executor::UpdateStats> Executor::Update(const UpdateRequest& request) {
  UpdateStats stats;

  // Ground templates (INSERT DATA / DELETE DATA): no variables allowed.
  auto ground_triples = [&](const std::vector<TriplePattern>& tmpl,
                            std::vector<std::array<Term, 3>>* out) -> Status {
    for (const TriplePattern& tp : tmpl) {
      if (tp.s.is_var || tp.p.is_var || tp.o.is_var) {
        return Status::InvalidArgument(
            "INSERT DATA / DELETE DATA templates must be ground");
      }
      out->push_back({tp.s.term, tp.p.term, tp.o.term});
    }
    return Status::OK();
  };

  if (request.kind == UpdateRequest::Kind::kInsertData) {
    std::vector<std::array<Term, 3>> triples;
    RDFA_RETURN_NOT_OK(ground_triples(request.insert_template, &triples));
    for (const auto& t : triples) {
      if (graph_->Add(t[0], t[1], t[2])) ++stats.inserted;
    }
    return stats;
  }
  if (request.kind == UpdateRequest::Kind::kDeleteData) {
    std::vector<std::array<Term, 3>> triples;
    RDFA_RETURN_NOT_OK(ground_triples(request.delete_template, &triples));
    for (const auto& t : triples) {
      TermId s = graph_->terms().Find(t[0]);
      TermId p = graph_->terms().Find(t[1]);
      TermId o = graph_->terms().Find(t[2]);
      if (s == kNoTermId || p == kNoTermId || o == kNoTermId) continue;
      stats.deleted += graph_->RemoveMatching(s, p, o);
    }
    return stats;
  }

  // Pattern-driven forms: evaluate WHERE first, then instantiate.
  VarTable vars;
  RDFA_ASSIGN_OR_RETURN(std::vector<Binding> rows,
                        EvalPattern(request.where, &vars, {}));
  auto instantiate = [&](const TriplePattern& tp, const Binding& row,
                         rdf::TripleId* out) {
    auto resolve = [&](const NodePattern& n, TermId* id) {
      if (!n.is_var) {
        *id = graph_->terms().Find(n.term);
        return *id != kNoTermId;
      }
      int slot = vars.Find(n.var);
      if (slot < 0 || static_cast<size_t>(slot) >= row.size() ||
          row[slot] == kNoTermId) {
        return false;
      }
      *id = row[slot];
      return true;
    };
    return resolve(tp.s, &out->s) && resolve(tp.p, &out->p) &&
           resolve(tp.o, &out->o);
  };

  // Collect all instantiations first so deletes/inserts see a consistent
  // binding set (the WHERE ran against the pre-update graph).
  std::vector<rdf::TripleId> to_delete;
  std::vector<std::array<Term, 3>> to_insert;
  for (const Binding& row : rows) {
    for (const TriplePattern& tp : request.delete_template) {
      rdf::TripleId t;
      if (instantiate(tp, row, &t)) to_delete.push_back(t);
    }
    for (const TriplePattern& tp : request.insert_template) {
      rdf::TripleId t;
      bool ok = true;
      // Inserts may introduce brand-new constant terms: intern, not find.
      auto resolve_insert = [&](const NodePattern& n, TermId* id) {
        if (!n.is_var) {
          *id = graph_->terms().Intern(n.term);
          return true;
        }
        int slot = vars.Find(n.var);
        if (slot < 0 || static_cast<size_t>(slot) >= row.size() ||
            row[slot] == kNoTermId) {
          return false;
        }
        *id = row[slot];
        return true;
      };
      ok = resolve_insert(tp.s, &t.s) && resolve_insert(tp.p, &t.p) &&
           resolve_insert(tp.o, &t.o);
      if (ok) {
        to_insert.push_back({graph_->terms().Get(t.s),
                             graph_->terms().Get(t.p),
                             graph_->terms().Get(t.o)});
      }
    }
  }
  for (const rdf::TripleId& t : to_delete) {
    stats.deleted += graph_->RemoveMatching(t.s, t.p, t.o);
  }
  for (const auto& t : to_insert) {
    if (graph_->Add(t[0], t[1], t[2])) ++stats.inserted;
  }
  return stats;
}

Result<ResultTable> ExecuteQueryString(rdf::Graph* graph,
                                       std::string_view text,
                                       const rdf::PrefixMap* prefixes) {
  RDFA_ASSIGN_OR_RETURN(ParsedQuery q, ParseQuery(text, prefixes));
  Executor exec(graph);
  return exec.Execute(q);
}

Result<Executor::UpdateStats> ExecuteUpdateString(
    rdf::Graph* graph, std::string_view text,
    const rdf::PrefixMap* prefixes) {
  RDFA_ASSIGN_OR_RETURN(UpdateRequest u, ParseUpdate(text, prefixes));
  Executor exec(graph);
  return exec.Update(u);
}

}  // namespace rdfa::sparql
