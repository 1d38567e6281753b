#include "sparql/executor.h"

#include <algorithm>
#include <iterator>
#include <array>
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
#include "sparql/solution_table.h"

namespace rdfa::sparql {

using rdf::kNoTermId;
using rdf::Term;
using rdf::TermId;

namespace {

// Rows between polls of the cheap stop flag in a row loop.
constexpr size_t kPollEveryRows = 128;

bool IsInternalVarName(const std::string& name) {
  return StartsWith(name, "_path") || StartsWith(name, "_agg");
}

// Appends the variables that every row `el` puts out binds, as EXPLAIN
// plans the run after it: a triple's or a path's, a BIND's or a VALUES's, and a
// sub-select's columns (under SELECT *, what its WHERE binds, internal
// variables aside). OPTIONAL, UNION and MINUS add none: a row may or may
// not bind their variables.
void AppendBoundVars(const PatternElement& el, std::vector<std::string>* out) {
  switch (el.kind) {
    case PatternElement::Kind::kTriple:
    case PatternElement::Kind::kTransPath:
      for (const NodePattern* n : {&el.triple.s, &el.triple.p, &el.triple.o}) {
        if (n->is_var) out->push_back(n->var);
      }
      break;
    case PatternElement::Kind::kBind:
      out->push_back(el.bind_var);
      break;
    case PatternElement::Kind::kValues:
      out->push_back(el.values_var);
      break;
    case PatternElement::Kind::kSubSelect: {
      for (const Projection& p : el.sub_select->projections) {
        out->push_back(p.var);
      }
      if (!el.sub_select->select_all) break;
      std::vector<std::string> where;
      for (const PatternElement& sub : el.sub_select->where.elements) {
        AppendBoundVars(sub, &where);
      }
      for (std::string& name : where) {
        if (!IsInternalVarName(name)) out->push_back(std::move(name));
      }
      break;
    }
    default:
      break;
  }
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
                                     const SolutionTable& rows,
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
    const TermId id = slot >= 0 ? rows.row(r)[slot] : kNoTermId;
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
                       const SolutionTable& rows,
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
      for (int slot : scope) solution.push_back(rows.row(r)[slot]);
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
      bound += *slot >= 0 && rows.row(r)[*slot] != kNoTermId;
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
    Value v = arg->Eval(rows.row(r), ctx);
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
  void Encode(SolutionRow row, const EvalContext& ctx, uint32_t* code) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      Key& key = keys_[k];
      if (key.dep == kPerRow) {
        code[k] = CodeOf(key.expr.Eval(row, ctx));
        continue;
      }
      const TermId id = key.dep >= 0 ? row[key.dep] : kNoTermId;
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

Result<SolutionTable> Executor::EvalPattern(const GraphPattern& pattern,
                                            VarTable* vars,
                                            SolutionTable seed) {
  SolutionTable rows = std::move(seed);

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

  const ExistsEval exists_eval = ExistsProbe(*vars);
  EvalContext ctx{.terms = &graph_->terms(), .vars = vars,
                  .exists_eval = &exists_eval};

  // Applies every not-yet-run filter whose variables are all certainly
  // bound, compacting the table in place. EXISTS filters always wait for
  // the end (their subpattern scope may mention anything). Each filter is
  // lowered when it runs, against the slots allocated by then.
  auto apply_ready_filters = [&](bool at_end) {
    std::optional<TraceSpan> span;
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
        span.emplace(ctx_.tracer(), "filter", &stats_.filter_ms);
        span->Arg("input_rows", static_cast<uint64_t>(rows.size()));
      }
      const CompiledExpr filter(*f.el->filter, *vars);
      rows.KeepIf([&](SolutionRow row) {
        const std::optional<bool> keep = filter.Test(row, ctx);
        return keep.has_value() && *keep;
      });
      f.done = true;
    }
    if (span.has_value()) {
      span->Arg("output_rows", static_cast<uint64_t>(rows.size()));
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
        {
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
          // Filters inside the join are charged to filter_ms, not to
          // bgp_ms.
          const double filter_before = stats_.filter_ms;
          double run_ms = 0;
          Status join_status;
          {
            TraceSpan bgp_span(ctx_.tracer(), "bgp", &run_ms);
            join_status = JoinBgp(*graph_, std::move(compiled), vars->size(),
                                  reorder_joins_, jopts, &rows);
          }
          stats_.bgp_ms += run_ms - (stats_.filter_ms - filter_before);
          RDFA_RETURN_NOT_OK(join_status);
        }
        certainly_bound.insert(run_vars.begin(), run_vars.end());
        apply_ready_filters(false);
        continue;
      }
      case PatternElement::Kind::kOptional: {
        SolutionTable next(rows.width());
        for (size_t r = 0; r < rows.size(); ++r) {
          RDFA_ASSIGN_OR_RETURN(
              SolutionTable extended,
              EvalPattern(*el.child, vars, SolutionTable::OneRow(rows.row(r))));
          next.Widen(vars->size());
          if (extended.empty()) {
            next.AppendRow(rows.row(r));
          } else {
            next.Append(extended);
          }
        }
        rows = std::move(next);
        break;
      }
      case PatternElement::Kind::kUnion: {
        RDFA_ASSIGN_OR_RETURN(SolutionTable lhs,
                              EvalPattern(*el.child, vars, rows));
        RDFA_ASSIGN_OR_RETURN(SolutionTable rhs,
                              EvalPattern(*el.child2, vars, std::move(rows)));
        lhs.Widen(vars->size());
        lhs.Append(rhs);
        rows = std::move(lhs);
        break;
      }
      case PatternElement::Kind::kBind: {
        {
          // The bind span closes before the filters the step makes ready.
          TraceSpan span(ctx_.tracer(), "bind", &stats_.bind_ms);
          span.Arg("input_rows", static_cast<uint64_t>(rows.size()));
          const int slot = vars->IdOf(el.bind_var);
          rows.Widen(vars->size());
          const CompiledExpr bind(*el.bind_expr, *vars);
          for (size_t r = 0; r < rows.size(); ++r) {
            Value v = bind.Eval(rows.row(r), ctx);
            if (!v.is_unbound()) {
              rows.row(r)[slot] = graph_->terms().Intern(v.ToTerm());
            }
          }
        }
        certainly_bound.insert(el.bind_var);
        apply_ready_filters(false);
        break;
      }
      case PatternElement::Kind::kValues: {
        {
          TraceSpan span(ctx_.tracer(), "bind", &stats_.bind_ms);
          span.Arg("input_rows", static_cast<uint64_t>(rows.size()));
          const int slot = vars->IdOf(el.values_var);
          rows.Widen(vars->size());
          std::vector<TermId> ids;
          ids.reserve(el.values_terms.size());
          for (const Term& t : el.values_terms) {
            ids.push_back(graph_->terms().Intern(t));
          }
          SolutionTable next(rows.width());
          for (size_t r = 0; r < rows.size(); ++r) {
            const SolutionRow row = rows.row(r);
            if (row[slot] != kNoTermId) {
              // Already bound: keep only if listed.
              if (std::find(ids.begin(), ids.end(), row[slot]) != ids.end()) {
                next.AppendRow(row);
              }
              continue;
            }
            for (TermId id : ids) next.AppendRow(row)[slot] = id;
          }
          rows = std::move(next);
          span.Arg("output_rows", static_cast<uint64_t>(rows.size()));
        }
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
        rows.Widen(vars->size());
        // Subquery cells index this graph's dictionary already; only
        // computed cells need interning.
        SolutionTable sub_rows(sub.num_columns());
        sub_rows.Reserve(sub.num_rows());
        for (size_t r = 0; r < sub.num_rows(); ++r) {
          const std::span<TermId> ids = sub_rows.AppendRow({});
          for (size_t c = 0; c < sub.num_columns(); ++c) {
            const ResultTable::Cell cell = sub.cell(r, c);
            ids[c] = ResultTable::IsOverflow(cell)
                         ? graph_->terms().Intern(sub.term(cell))
                         : cell;  // an id, or kUnboundCell == kNoTermId
          }
        }
        SolutionTable next(rows.width());
        for (size_t r = 0; r < rows.size(); ++r) {
          for (size_t s = 0; s < sub_rows.size(); ++s) {
            const SolutionRow srow = sub_rows.row(s);
            const std::span<TermId> extended = next.AppendRow(rows.row(r));
            for (size_t c = 0; c < slots.size(); ++c) {
              TermId& slot = extended[slots[c]];
              if (srow[c] == kNoTermId) continue;
              if (slot != kNoTermId && slot != srow[c]) {
                next.PopRow();
                break;
              }
              slot = srow[c];
            }
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
        SolutionTable kept(rows.width());
        for (size_t r = 0; r < rows.size(); ++r) {
          RDFA_ASSIGN_OR_RETURN(
              SolutionTable matched,
              EvalPattern(*el.child, vars, SolutionTable::OneRow(rows.row(r))));
          if (matched.empty()) kept.AppendRow(rows.row(r));
        }
        rows = std::move(kept);
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
        rows.Widen(vars->size());
        SolutionTable next(rows.width());
        for (size_t r = 0; r < rows.size(); ++r) {
          const SolutionRow row = rows.row(r);
          // BFS expansions can dwarf everything else on a pathological
          // path query: poll per source row.
          if (ctx_.ShouldStop()) return ctx_.Check("path-expansion");
          TermId s = s_var >= 0 && row[s_var] != kNoTermId ? row[s_var]
                                                           : s_const;
          TermId o = o_var >= 0 && row[o_var] != kNoTermId ? row[o_var]
                                                           : o_const;
          auto emit = [&](TermId sv, TermId ov) {
            const std::span<TermId> extended = next.AppendRow(row);
            if (s_var >= 0) extended[s_var] = sv;
            if (o_var >= 0) extended[o_var] = ov;
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

  rows.Widen(vars->size());
  apply_ready_filters(/*at_end=*/true);
  return rows;
}

Executor::ExistsEval Executor::ExistsProbe(const VarTable& vars) {
  return [this, &vars](const GraphPattern& probe, SolutionRow row) {
    // A VarTable copy isolates variables the probe introduces. The probe's
    // time belongs to the stage whose expression runs it: its nested spans
    // stay in the trace, but their time is not counted into ExecStats a
    // second time.
    VarTable local = vars;
    const double index_build_ms = stats_.index_build_ms;
    const double bgp_ms = stats_.bgp_ms;
    const double filter_ms = stats_.filter_ms;
    const double bind_ms = stats_.bind_ms;
    auto res = EvalPattern(probe, &local, SolutionTable::OneRow(row));
    stats_.index_build_ms = index_build_ms;
    stats_.bgp_ms = bgp_ms;
    stats_.filter_ms = filter_ms;
    stats_.bind_ms = bind_ms;
    return res.ok() && !res.value().empty();
  };
}

Result<ResultTable> Executor::Select(const SelectQuery& query) {
  VarTable vars;
  RDFA_ASSIGN_OR_RETURN(
      SolutionTable rows,
      EvalPattern(query.where, &vars, SolutionTable::OneRow({})));

  // Projection, GROUP BY keys, HAVING and ORDER BY read EXISTS through the
  // same probe FILTER does. A probe re-enters this single-owner executor,
  // so a stage whose expressions hold one runs its rows serially.
  const ExistsEval exists_eval = ExistsProbe(vars);
  EvalContext ctx{.terms = &graph_->terms(), .vars = &vars,
                  .exists_eval = &exists_eval};
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

  // Output row i is projected from, and ordered by, solution row source(i)
  // of `rows`: row i itself, or under aggregation the representative row
  // of the i-th kept group, whose aggregate values are
  // agg_values[i * agg_nodes.size(), ...).
  std::vector<uint32_t> reps;
  std::vector<Value> agg_values;
  auto source = [&](size_t i) {
    return rows.row(has_aggregate ? reps[i] : i);
  };
  auto out_ctx = [&](size_t i) {
    EvalContext octx = ctx;
    octx.agg_nodes = &agg_nodes;
    octx.agg_values = agg_values.data() + i * agg_nodes.size();
    return octx;
  };

  if (has_aggregate) {
    TraceSpan agg_span(ctx_.tracer(), "group-aggregate",
                       &stats_.group_agg_ms);
    agg_span.Arg("input_rows", static_cast<uint64_t>(rows.size()));
    // Assign every row its group (see GroupKeyCoder); without GROUP BY all
    // rows, or none, form the one group.
    GroupKeyCoder coder(query.group_by, vars);
    GroupTable table(coder.width());
    std::vector<uint32_t> key(coder.width());
    std::vector<uint32_t> row_group(rows.size());
    if (query.group_by.empty()) table.FindOrAdd(key.data());
    for (size_t r = 0; r < rows.size(); ++r) {
      if ((r + 1) % kPollEveryRows == 0 && ctx_.ShouldStop()) {
        return ctx_.Check("group-aggregate");
      }
      coder.Encode(rows.row(r), ctx, key.data());
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
    // The one group of no rows is represented by an all-unbound row.
    if (rows.empty()) rows.AppendRow({});
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
    bool group_exists = false;
    for (const ExprPtr& h : query.having) group_exists |= h->ContainsExists();
    for (const Expr* a : agg_nodes) group_exists |= a->ContainsExists();
    // COUNT(DISTINCT *) tells solutions apart by the in-scope variables.
    std::vector<int> scope;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (!IsInternalVarName(vars.names()[i])) {
        scope.push_back(static_cast<int>(i));
      }
    }

    // Aggregate + HAVING per group. Groups are independent, so morsels of
    // groups run in parallel; each keeps its survivors in output order, and
    // the parts concatenate in morsel order — deterministic. Each group's
    // rows are read in input order, which keeps order-sensitive aggregates
    // (floating-point SUM, GROUP_CONCAT) byte-identical to a serial pass.
    struct GroupPart {
      std::vector<uint32_t> reps;
      std::vector<Value> agg_values;
      Status status = Status::OK();
    };
    auto compute_group = [&](size_t gi, GroupPart* part) {
      const uint32_t g = group_order[gi];
      const std::span<const uint32_t> group_rows(
          members.data() + group_begin[g], group_begin[g + 1] - group_begin[g]);
      const uint32_t rep = group_rows.empty() ? 0 : group_rows.front();
      const size_t first = part->agg_values.size();
      for (size_t a = 0; a < agg_nodes.size(); ++a) {
        part->agg_values.push_back(ComputeAggregate(
            *agg_nodes[a], agg_args[a].has_value() ? &*agg_args[a] : nullptr,
            rows, group_rows, scope, ctx));
      }
      EvalContext gctx = ctx;
      gctx.agg_nodes = &agg_nodes;
      gctx.agg_values = part->agg_values.data() + first;
      for (const CompiledExpr& h : having) {
        auto b = h.Test(rows.row(rep), gctx);
        if (!b.has_value() || !*b) {
          part->agg_values.resize(first);
          return;
        }
      }
      part->reps.push_back(rep);
    };
    std::vector<GroupPart> group_parts = RunMorsels<GroupPart>(
        n_groups, group_exists ? 1 : threads_, /*min_grain=*/1,
        [&](size_t lo, size_t hi, GroupPart* part) {
          for (size_t gi = lo; gi < hi; ++gi) {
            // One counted checkpoint per group, serial or parallel: a
            // cancel mid-aggregate trips here.
            part->status = ctx_.Check("group-aggregate");
            if (!part->status.ok()) return;
            compute_group(gi, part);
          }
        });
    // A parallel run (more than one part) counts its morsels and closes
    // with one counted check.
    if (group_parts.size() > 1) {
      stats_.morsel_count += group_parts.size();
      RDFA_RETURN_NOT_OK(ctx_.Check("group-aggregate"));
    }
    for (GroupPart& part : group_parts) {
      RDFA_RETURN_NOT_OK(part.status);
      reps.insert(reps.end(), part.reps.begin(), part.reps.end());
      std::move(part.agg_values.begin(), part.agg_values.end(),
                std::back_inserter(agg_values));
    }
    agg_span.Arg("output_rows", static_cast<uint64_t>(reps.size()));
  }

  // Projection, straight into the table's cells: ids are copied out of the
  // solution rows, and only expressions materialize terms, which go to the
  // table's overflow store. Under aggregation it runs over the kept groups'
  // representative rows. It runs serially: copying ids out of one buffer
  // costs less than splitting it into morsels whose cells and terms would
  // then be moved into the table one part after another.
  bool any_computed = false;  // whether projection computed any term
  {
    TraceSpan proj_span(ctx_.tracer(), "projection", &stats_.projection_ms);
    const size_t n = has_aggregate ? reps.size() : rows.size();
    proj_span.Arg("input_rows", static_cast<uint64_t>(n));
    std::vector<int> proj_slots;
    std::vector<std::optional<CompiledExpr>> proj_exprs;
    proj_slots.reserve(projections.size());
    proj_exprs.reserve(projections.size());
    for (const Projection& p : projections) {
      proj_slots.push_back(p.expr == nullptr ? vars.Find(p.var) : -1);
      proj_exprs.emplace_back();
      if (p.expr != nullptr) proj_exprs.back().emplace(*p.expr, vars);
    }
    std::vector<ResultTable::Cell> cells(projections.size());
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if ((i + 1) % kPollEveryRows == 0 && ctx_.ShouldStop()) {
        return ctx_.Check("projection");
      }
      const SolutionRow b = source(i);
      const EvalContext ectx = has_aggregate ? out_ctx(i) : ctx;
      for (size_t c = 0; c < projections.size(); ++c) {
        if (proj_exprs[c].has_value()) {
          Value v = proj_exprs[c]->Eval(b, ectx);
          any_computed = any_computed || !v.is_unbound();
          cells[c] = v.is_unbound() ? ResultTable::kUnboundCell
                                    : out.StoreTerm(v.ToTerm());
          continue;
        }
        const int slot = proj_slots[c];
        const TermId id = slot >= 0 ? b[slot] : kNoTermId;
        // An id past the cell id space is stored as a computed term.
        any_computed = any_computed || ResultTable::IsOverflow(id);
        cells[c] = ResultTable::IsOverflow(id)
                       ? out.StoreTerm(graph_->terms().Get(id))
                       : id;
      }
      out.AddCellRow(cells);
    }
    proj_span.Arg("output_rows", static_cast<uint64_t>(out.num_rows()));
  }

  // ORDER BY, DISTINCT and OFFSET/LIMIT choose the output rows, as a vector
  // of row indexes, and the table keeps those rows in that order.
  if (!query.order_by.empty() || query.distinct || query.offset > 0 ||
      query.limit >= 0) {
    TraceSpan order_span(ctx_.tracer(), "order-distinct", &stats_.order_ms);
    order_span.Arg("input_rows", static_cast<uint64_t>(out.num_rows()));
    std::vector<uint32_t> keep(out.num_rows());
    std::iota(keep.begin(), keep.end(), 0);
    if (!query.order_by.empty()) {
      std::vector<CompiledExpr> order_exprs;
      order_exprs.reserve(query.order_by.size());
      for (const OrderKey& k : query.order_by) {
        order_exprs.emplace_back(*k.expr, vars);
      }
      auto key_value = [&](uint32_t r, size_t i) -> Value {
        const OrderKey& k = query.order_by[i];
        // An alias referring to an output column takes precedence.
        if (k.expr->kind == Expr::Kind::kVar) {
          int col = out.ColumnIndex(k.expr->var);
          if (col >= 0 && vars.Find(k.expr->var) < 0) {
            const Term& t = out.at(r, col);
            return ResultTable::IsUnbound(t) ? Value::Unbound()
                                             : Value::FromTerm(t);
          }
        }
        return order_exprs[i].Eval(source(r), out_ctx(r));
      };
      std::stable_sort(keep.begin(), keep.end(), [&](uint32_t a, uint32_t b) {
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
    // ids are equal terms. A computed term may equal a dictionary term, so
    // once projection computed one, every row is keyed by its rendered
    // terms.
    if (query.distinct) {
      const size_t width = out.num_columns();
      std::unordered_set<std::string> seen;
      size_t kept = 0;
      for (const uint32_t r : keep) {
        std::string key;
        for (size_t c = 0; c < width; ++c) {
          const ResultTable::Cell cell = out.cell(r, c);
          if (any_computed) {
            out.term(cell).AppendNTriples(&key);
            key += '\t';
          } else {
            key.append(reinterpret_cast<const char*>(&cell), sizeof(cell));
          }
        }
        if (seen.insert(std::move(key)).second) keep[kept++] = r;
      }
      keep.resize(kept);
    }

    // OFFSET / LIMIT. A negative offset (defensive: the parser rejects them)
    // clamps to 0 rather than wrapping through the size_t cast.
    const size_t begin =
        query.offset > 0
            ? std::min<size_t>(static_cast<size_t>(query.offset), keep.size())
            : 0;
    size_t end = keep.size();
    if (query.limit >= 0) {
      end = std::min(end, begin + static_cast<size_t>(query.limit));
    }
    out.KeepRows(std::span(keep).subspan(begin, end - begin));
    order_span.Arg("output_rows", static_cast<uint64_t>(out.num_rows()));
  }
  return out;
}

Result<bool> Executor::Ask(const AskQuery& query) {
  VarTable vars;
  RDFA_ASSIGN_OR_RETURN(
      SolutionTable rows,
      EvalPattern(query.where, &vars, SolutionTable::OneRow({})));
  return !rows.empty();
}

Result<size_t> Executor::Construct(const ConstructQuery& query,
                                   rdf::Graph* out) {
  VarTable vars;
  RDFA_ASSIGN_OR_RETURN(
      SolutionTable rows,
      EvalPattern(query.where, &vars, SolutionTable::OneRow({})));
  size_t added = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const SolutionRow row = rows.row(r);
    for (const TriplePattern& tp : query.construct_template) {
      auto instantiate = [&](const NodePattern& n, Term* t) {
        if (!n.is_var) {
          *t = n.term;
          return true;
        }
        const int slot = vars.Find(n.var);
        if (slot < 0 || row[slot] == kNoTermId) return false;
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
    RDFA_ASSIGN_OR_RETURN(
        SolutionTable rows,
        EvalPattern(query.where, &vars, SolutionTable::OneRow({})));
    for (const std::string& name : query.vars) {
      int slot = vars.Find(name);
      if (slot < 0) continue;
      for (size_t r = 0; r < rows.size(); ++r) {
        const TermId id = rows.row(r)[slot];
        if (id != kNoTermId) subjects.insert(id);
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
  // The execute span is total_ms's clock; it closes before
  // RecordQueryMetrics reads total_ms.
  std::optional<TraceSpan> exec_span(std::in_place, ctx_.tracer(), "execute",
                                     &stats_.total_ms);
  exec_span->Arg("threads", static_cast<int64_t>(threads_));

  // Zero-deadline (or already-cancelled) fast fail: no work is admitted at
  // all, mirroring a serving stack rejecting a request whose budget is
  // already spent. Stats still record the run (threads, ~0ms, aborted).
  {
    Status admit = ctx_.Check("admission");
    if (!admit.ok()) {
      stats_.aborted = true;
      stats_.abort_stage =
          ctx_.trip_stage() != nullptr ? ctx_.trip_stage() : "admission";
      exec_span->Arg("aborted", true);
      exec_span->Arg("abort_stage", stats_.abort_stage);
      exec_span.reset();
      RecordQueryMetrics(stats_, admit.code());
      return admit;
    }
  }

  // Eager first-touch index build: done here, once, so (a) its cost shows
  // up as index_build_ms rather than inside the first pattern scan, and
  // (b) parallel workers only ever see a clean index.
  {
    TraceSpan freeze_span(ctx_.tracer(), "index-build",
                          &stats_.index_build_ms);
    graph_->Freeze();
  }

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
    {
      TraceSpan decode_span(ctx_.tracer(), "mmap-decode");
      decode_span.Arg("key_blocks", key_blocks);
      decode_span.Arg("term_blocks", term_blocks);
      decode_span.Arg("dict_lookups", dict_lookups);
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
  }
  StatusCode code = result.status().code();
  if (code == StatusCode::kDeadlineExceeded || code == StatusCode::kCancelled) {
    stats_.aborted = true;
    if (ctx_.trip_stage() != nullptr) stats_.abort_stage = ctx_.trip_stage();
  }
  exec_span->Arg("aborted", stats_.aborted);
  if (stats_.aborted) exec_span->Arg("abort_stage", stats_.abort_stage);
  if (result.ok()) {
    exec_span->Arg("rows", static_cast<uint64_t>(result.value().num_rows()));
  }
  exec_span.reset();
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
  // The slots every row binds when a run starts. EvalPattern runs a triple
  // run after an earlier run, a path, a BIND, a VALUES or a sub-select (a
  // FILTER splits runs) over rows that bind theirs (AppendBoundVars), so
  // such a run is planned from one such row: it is greedy-ordered from
  // those slots and never DP-seeded.
  std::set<int> bound;
  bool first = true;
  const auto& body = where->elements;
  size_t i = 0;
  while (i < body.size()) {
    const PatternElement& el = body[i];
    if (el.kind != PatternElement::Kind::kTriple) {
      std::vector<std::string> names;
      AppendBoundVars(el, &names);
      for (const std::string& name : names) bound.insert(vars.IdOf(name));
      ++i;
      continue;
    }
    std::vector<CompiledPattern> compiled;
    while (i < body.size() && body[i].kind == PatternElement::Kind::kTriple) {
      compiled.push_back(CompileTriple(body[i].triple, &vars, *graph_));
      ++i;
    }
    // Only boundness plans, so any term id stands in for the bound values.
    SolutionTable row(vars.size());
    const std::span<TermId> ids = row.AppendRow({});
    for (int slot : bound) ids[slot] = 0;
    bool used_dp = false;
    const std::vector<int> order =
        PlanBgpOrder(*graph_, compiled, opts, reorder_joins_, row, &used_dp);
    std::vector<CompiledPattern> ordered;
    ordered.reserve(order.size());
    bool impossible = false;
    for (int idx : order) {
      impossible = impossible || compiled[idx].impossible;
      ordered.push_back(compiled[idx]);
    }
    // Under use_dp a top-level run starts with a seed scan (JoinBgp).
    BgpPlan plan =
        AnnotateBgpPlan(*graph_, ordered, use_dp_ && bound.empty(), bound);
    plan.used_dp = used_dp;
    for (const CompiledPattern& p : compiled) {
      for (int v : {p.s_var, p.p_var, p.o_var}) {
        if (v >= 0) bound.insert(v);
      }
    }
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
  RDFA_ASSIGN_OR_RETURN(
      SolutionTable rows,
      EvalPattern(request.where, &vars, SolutionTable::OneRow({})));
  // A template triple under `row`: each variable's binding, each constant's
  // id (inserts may introduce brand-new constants, so they intern them;
  // deletes only find them). False when a position has no id.
  auto instantiate = [&](const TriplePattern& tp, SolutionRow row,
                         bool intern, rdf::TripleId* out) {
    auto resolve = [&](const NodePattern& n, TermId* id) {
      if (n.is_var) {
        const int slot = vars.Find(n.var);
        *id = slot < 0 ? kNoTermId : row[slot];
      } else {
        *id = intern ? graph_->terms().Intern(n.term)
                     : graph_->terms().Find(n.term);
      }
      return *id != kNoTermId;
    };
    return resolve(tp.s, &out->s) && resolve(tp.p, &out->p) &&
           resolve(tp.o, &out->o);
  };

  // Collect all instantiations first so deletes/inserts see a consistent
  // binding set (the WHERE ran against the pre-update graph).
  std::vector<rdf::TripleId> to_delete;
  std::vector<std::array<Term, 3>> to_insert;
  for (size_t r = 0; r < rows.size(); ++r) {
    rdf::TripleId t;
    for (const TriplePattern& tp : request.delete_template) {
      if (instantiate(tp, rows.row(r), false, &t)) to_delete.push_back(t);
    }
    for (const TriplePattern& tp : request.insert_template) {
      if (instantiate(tp, rows.row(r), true, &t)) {
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

Status ApplyUpdate(rdf::Graph* graph, const std::string& text) {
  return ExecuteUpdateString(graph, text).status();
}

}  // namespace rdfa::sparql
