#include "sparql/executor.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <set>

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

/// Computes one aggregate over the rows of a group.
Value ComputeAggregate(const Expr& agg, const std::vector<Binding>& rows,
                       const EvalContext& ctx) {
  if (agg.agg_star) {
    // COUNT(*), possibly DISTINCT (over whole rows; DISTINCT * is rare).
    return Value::Int(static_cast<int64_t>(rows.size()));
  }
  const Expr& arg = *agg.args[0];
  std::vector<Value> values;
  values.reserve(rows.size());
  std::set<std::string> seen;
  for (const Binding& row : rows) {
    Value v = EvalExpr(arg, row, ctx);
    if (v.is_unbound()) continue;
    if (agg.agg_distinct) {
      std::string key = v.ToTerm().ToNTriples();
      if (!seen.insert(key).second) continue;
    }
    values.push_back(std::move(v));
  }
  switch (agg.agg) {
    case AggFunc::kCount:
      return Value::Int(static_cast<int64_t>(values.size()));
    case AggFunc::kSum: {
      bool all_int = true;
      double sum = 0;
      int64_t isum = 0;
      for (const Value& v : values) {
        auto n = v.AsNumeric();
        if (!n.has_value()) return Value::Unbound();
        sum += *n;
        if (v.kind() == Value::Kind::kInt) {
          isum += v.int_value();
        } else {
          all_int = false;
        }
      }
      return all_int ? Value::Int(isum) : Value::Double(sum);
    }
    case AggFunc::kAvg: {
      if (values.empty()) return Value::Unbound();
      double sum = 0;
      for (const Value& v : values) {
        auto n = v.AsNumeric();
        if (!n.has_value()) return Value::Unbound();
        sum += *n;
      }
      return Value::Double(sum / static_cast<double>(values.size()));
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (values.empty()) return Value::Unbound();
      const Value* best = &values[0];
      for (size_t i = 1; i < values.size(); ++i) {
        auto c = Value::Compare(values[i], *best);
        if (!c.has_value()) continue;
        if ((agg.agg == AggFunc::kMin && *c < 0) ||
            (agg.agg == AggFunc::kMax && *c > 0)) {
          best = &values[i];
        }
      }
      return *best;
    }
    case AggFunc::kGroupConcat: {
      std::string out;
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += agg.agg_separator;
        out += values[i].AsString();
      }
      return Value::String(std::move(out));
    }
    case AggFunc::kSample:
      return values.empty() ? Value::Unbound() : values[0];
  }
  return Value::Unbound();
}

Term ValueToCell(const Value& v) {
  if (v.is_unbound()) return Term();  // empty IRI: the unbound marker
  return v.ToTerm();
}

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
  EvalContext ctx{&graph_->terms(), vars, nullptr, &exists_fn};

  // Applies every not-yet-run filter whose variables are all certainly
  // bound. EXISTS filters always wait for the end (their subpattern scope
  // may mention anything).
  auto apply_ready_filters = [&](bool at_end) {
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
      std::vector<Binding> next;
      next.reserve(rows.size());
      for (Binding& row : rows) {
        auto b = EvalExpr(*f.el->filter, row, ctx).EffectiveBool();
        if (b.has_value() && *b) next.push_back(std::move(row));
      }
      rows = std::move(next);
      f.done = true;
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
        while (i < body.size() &&
               body[i]->kind == PatternElement::Kind::kTriple) {
          const TriplePattern& tp = body[i]->triple;
          for (const NodePattern* n : {&tp.s, &tp.p, &tp.o}) {
            if (n->is_var) certainly_bound.insert(n->var);
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
          Status join_status =
              JoinBgp(*graph_, std::move(compiled), vars->size(),
                      reorder_joins_, jopts, &rows);
          if (jopts.capture_order != nullptr) {
            if (capture_orders_->size() <= seq) {
              capture_orders_->resize(seq + 1);
            }
            (*capture_orders_)[seq] = std::move(chosen);
          }
          stats_.bgp_ms += MsSince(start);
          RDFA_RETURN_NOT_OK(join_status);
        }
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
        for (Binding& row : rows) {
          Value v = EvalExpr(*el.bind_expr, row, ctx);
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
        // Intern subquery results.
        std::vector<std::vector<TermId>> sub_rows;
        sub_rows.reserve(sub.num_rows());
        for (size_t r = 0; r < sub.num_rows(); ++r) {
          std::vector<TermId> ids;
          ids.reserve(sub.num_columns());
          for (size_t c = 0; c < sub.num_columns(); ++c) {
            const Term& t = sub.at(r, c);
            ids.push_back(ResultTable::IsUnbound(t)
                              ? kNoTermId
                              : graph_->terms().Intern(t));
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

  EvalContext ctx{&graph_->terms(), &vars, nullptr};

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

  ResultTable out([&] {
    std::vector<std::string> cols;
    cols.reserve(projections.size());
    for (const Projection& p : projections) cols.push_back(p.var);
    return cols;
  }());

  // Rows that survive to ordering: output cells + context for ORDER BY.
  struct OutRow {
    std::vector<Term> cells;
    Binding binding;
    std::map<const Expr*, Value> agg_values;
  };
  std::vector<OutRow> out_rows;

  auto agg_start = std::chrono::steady_clock::now();
  // optional so the span closes at the stage boundary below, not at
  // function exit (early returns still close it via RAII).
  std::optional<TraceSpan> agg_span;
  agg_span.emplace(ctx_.tracer(),
                   has_aggregate ? "group-aggregate" : "projection");
  agg_span->Arg("input_rows", static_cast<uint64_t>(rows.size()));
  if (has_aggregate) {
    // Group rows by the GROUP BY key. With a thread budget, morsels of rows
    // build per-morsel partial hash tables that are merged in morsel order,
    // so every group's row list matches the serial order exactly (this is
    // what keeps non-commutative-looking aggregates like GROUP_CONCAT and
    // floating-point SUM byte-identical to the serial path).
    using GroupMap = std::map<std::vector<std::string>, std::vector<Binding>>;
    GroupMap groups;
    if (rows.empty() && query.group_by.empty()) {
      groups[{}] = {};  // aggregates over the empty solution: one group
    }
    auto key_of = [&](const Binding& row) {
      std::vector<std::string> key;
      key.reserve(query.group_by.size());
      for (const ExprPtr& g : query.group_by) {
        Value v = EvalExpr(*g, row, ctx);
        key.push_back(v.is_unbound() ? std::string("\x01unbound")
                                     : v.ToTerm().ToNTriples());
      }
      return key;
    };
    if (threads_ > 1 && rows.size() >= kParallelRowThreshold) {
      auto morsels =
          Morsels(rows.size(), static_cast<size_t>(threads_) * kMorselsPerThread,
                  kMinMorselRows);
      std::vector<GroupMap> parts(morsels.size());
      ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
        if (ctx_.ShouldStop()) return;  // abandon; trip reported below
        auto [lo, hi] = morsels[m];
        for (size_t r = lo; r < hi; ++r) {
          parts[m][key_of(rows[r])].push_back(std::move(rows[r]));
        }
      });
      RDFA_RETURN_NOT_OK(ctx_.Check("group-aggregate"));
      for (GroupMap& part : parts) {
        for (auto& [key, part_rows] : part) {
          std::vector<Binding>& dst = groups[key];
          for (Binding& b : part_rows) dst.push_back(std::move(b));
        }
      }
      stats_.morsel_count += morsels.size();
    } else {
      size_t r = 0;
      for (Binding& row : rows) {
        if (++r % kParallelRowThreshold == 0 && ctx_.ShouldStop()) {
          return ctx_.Check("group-aggregate");
        }
        groups[key_of(row)].push_back(std::move(row));
      }
    }

    // All aggregate nodes used anywhere downstream.
    std::vector<const Expr*> agg_nodes;
    for (const Projection& p : projections) {
      if (p.expr != nullptr) CollectAggregates(*p.expr, &agg_nodes);
    }
    for (const ExprPtr& h : query.having) CollectAggregates(*h, &agg_nodes);
    for (const OrderKey& k : query.order_by) {
      CollectAggregates(*k.expr, &agg_nodes);
    }

    // Aggregate + HAVING + projection per group. Groups are independent, so
    // morsels of groups run in parallel; results land in pre-sized slots and
    // survivors are appended in group (map) order — deterministic.
    std::vector<std::vector<Binding>*> group_rows_list;
    group_rows_list.reserve(groups.size());
    for (auto& [key, group_rows] : groups) group_rows_list.push_back(&group_rows);
    struct GroupOut {
      OutRow row;
      bool keep = false;
    };
    std::vector<GroupOut> gout(group_rows_list.size());
    auto compute_group = [&](size_t gi) {
      std::vector<Binding>& group_rows = *group_rows_list[gi];
      Binding rep = group_rows.empty() ? Binding(vars.size(), kNoTermId)
                                       : group_rows.front();
      std::map<const Expr*, Value> agg_values;
      for (const Expr* node : agg_nodes) {
        agg_values[node] = ComputeAggregate(*node, group_rows, ctx);
      }
      EvalContext gctx{&graph_->terms(), &vars, &agg_values};
      // HAVING.
      for (const ExprPtr& h : query.having) {
        auto b = EvalExpr(*h, rep, gctx).EffectiveBool();
        if (!b.has_value() || !*b) return;
      }
      GroupOut& go = gout[gi];
      go.keep = true;
      go.row.binding = rep;
      go.row.agg_values = std::move(agg_values);
      EvalContext rctx{&graph_->terms(), &vars, &go.row.agg_values};
      for (const Projection& p : projections) {
        if (p.expr == nullptr) {
          int slot = vars.Find(p.var);
          go.row.cells.push_back(
              (slot >= 0 && static_cast<size_t>(slot) < rep.size() &&
               rep[slot] != kNoTermId)
                  ? graph_->terms().Get(rep[slot])
                  : Term());
        } else {
          go.row.cells.push_back(ValueToCell(EvalExpr(*p.expr, rep, rctx)));
        }
      }
    };
    if (threads_ > 1 && group_rows_list.size() >= 2) {
      auto morsels = Morsels(group_rows_list.size(),
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
      for (size_t gi = 0; gi < group_rows_list.size(); ++gi) {
        RDFA_RETURN_NOT_OK(ctx_.Check("group-aggregate"));
        compute_group(gi);
      }
    }
    for (GroupOut& go : gout) {
      if (go.keep) out_rows.push_back(std::move(go.row));
    }
  } else {
    auto project_row = [&](Binding& row, OutRow* orow) {
      for (const Projection& p : projections) {
        if (p.expr == nullptr) {
          int slot = vars.Find(p.var);
          orow->cells.push_back(
              (slot >= 0 && static_cast<size_t>(slot) < row.size() &&
               row[slot] != kNoTermId)
                  ? graph_->terms().Get(row[slot])
                  : Term());
        } else {
          orow->cells.push_back(ValueToCell(EvalExpr(*p.expr, row, ctx)));
        }
      }
      orow->binding = std::move(row);
    };
    if (threads_ > 1 && rows.size() >= kParallelRowThreshold) {
      out_rows.resize(rows.size());
      auto morsels =
          Morsels(rows.size(), static_cast<size_t>(threads_) * kMorselsPerThread,
                  kMinMorselRows);
      ThreadPool::Shared().ParallelFor(morsels.size(), [&](size_t m) {
        if (ctx_.ShouldStop()) return;
        auto [lo, hi] = morsels[m];
        for (size_t r = lo; r < hi; ++r) project_row(rows[r], &out_rows[r]);
      });
      RDFA_RETURN_NOT_OK(ctx_.Check("projection"));
      stats_.morsel_count += morsels.size();
    } else {
      size_t r = 0;
      for (Binding& row : rows) {
        if (++r % kParallelRowThreshold == 0 && ctx_.ShouldStop()) {
          return ctx_.Check("projection");
        }
        OutRow orow;
        project_row(row, &orow);
        out_rows.push_back(std::move(orow));
      }
    }
  }
  stats_.group_agg_ms += MsSince(agg_start);
  agg_span->Arg("output_rows", static_cast<uint64_t>(out_rows.size()));
  agg_span.reset();

  // ORDER BY.
  if (!query.order_by.empty()) {
    auto key_value = [&](const OutRow& r, const OrderKey& k) -> Value {
      // An alias referring to an output column takes precedence.
      if (k.expr->kind == Expr::Kind::kVar) {
        int col = out.ColumnIndex(k.expr->var);
        if (col >= 0 && vars.Find(k.expr->var) < 0) {
          const Term& t = r.cells[col];
          return ResultTable::IsUnbound(t) ? Value::Unbound()
                                           : Value::FromTerm(t);
        }
      }
      EvalContext octx{&graph_->terms(), &vars, &r.agg_values};
      return EvalExpr(*k.expr, r.binding, octx);
    };
    std::stable_sort(out_rows.begin(), out_rows.end(),
                     [&](const OutRow& a, const OutRow& b) {
                       for (const OrderKey& k : query.order_by) {
                         Value va = key_value(a, k);
                         Value vb = key_value(b, k);
                         if (va.is_unbound() && vb.is_unbound()) continue;
                         if (va.is_unbound()) return k.ascending;
                         if (vb.is_unbound()) return !k.ascending;
                         auto c = Value::Compare(va, vb);
                         if (!c.has_value() || *c == 0) continue;
                         return k.ascending ? *c < 0 : *c > 0;
                       }
                       return false;
                     });
  }

  // DISTINCT.
  if (query.distinct) {
    std::set<std::string> seen;
    std::vector<OutRow> deduped;
    for (OutRow& r : out_rows) {
      std::string key;
      for (const Term& t : r.cells) key += t.ToNTriples() + "\t";
      if (seen.insert(key).second) deduped.push_back(std::move(r));
    }
    out_rows = std::move(deduped);
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
  for (size_t r = begin; r < end; ++r) {
    out.AddRow(std::move(out_rows[r].cells));
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
  stats_.index_build_ms = MsSince(freeze_start);

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
