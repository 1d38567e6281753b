#include "analytics/rollup_cache.h"

#include <map>

#include "common/metrics.h"
#include "common/trace.h"
#include "sparql/value.h"

namespace rdfa::analytics {

using hifun::AggOp;
using rdf::Term;
using sparql::Value;

namespace {

Result<std::vector<int>> ResolveColumns(
    const sparql::ResultTable& table, const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    int idx = table.ColumnIndex(name);
    if (idx < 0) return Status::NotFound("no column " + name);
    out.push_back(idx);
  }
  return out;
}

std::string GroupKey(const sparql::ResultTable& table, size_t row,
                     const std::vector<int>& cols) {
  std::string key;
  for (int c : cols) key += table.at(row, c).ToNTriples() + "\t";
  return key;
}

/// Runs `scan(row)` over rows [0, n) in order — the left fold — with a
/// counted checkpoint every 128 rows; stops at the first error.
template <typename ScanFn>
Status ScanRows(size_t n, const QueryContext& ctx, const ScanFn& scan) {
  for (size_t r = 0; r < n; ++r) {
    if (r % 128 == 0) RDFA_RETURN_NOT_OK(ctx.Check("rollup-merge"));
    RDFA_RETURN_NOT_OK(scan(r));
  }
  return Status::OK();
}

}  // namespace

Result<AnswerFrame> RollUpAnswer(const AnswerFrame& answer,
                                 const std::vector<std::string>& keep_columns,
                                 const std::string& agg_column,
                                 AggOp op, const QueryContext& ctx) {
  if (op == AggOp::kAvg) {
    return Status::InvalidArgument(
        "AVG is not distributive; roll it up from its (sum, count) pair "
        "with RollUpAverage");
  }
  TraceSpan span(ctx.tracer(), "rollup-cache");
  MetricsRegistry::Global()
      .GetCounter("rdfa_rollup_reuse_total",
                  "Roll-ups computed from a materialized answer frame")
      .Increment();
  const sparql::ResultTable& table = answer.table();
  span.Arg("input_rows", static_cast<uint64_t>(table.num_rows()));
  RDFA_ASSIGN_OR_RETURN(std::vector<int> keep,
                        ResolveColumns(table, keep_columns));
  int agg_idx = table.ColumnIndex(agg_column);
  if (agg_idx < 0) return Status::NotFound("no column " + agg_column);

  struct Acc {
    std::vector<Term> key_terms;
    double sum = 0;
    bool first = true;
    double best = 0;
  };
  std::map<std::string, Acc> groups;
  auto scan = [&](size_t r) -> Status {
    auto v = Value::FromTerm(table.at(r, agg_idx)).AsNumeric();
    if (!v.has_value()) {
      return Status::TypeError("non-numeric aggregate cell in row " +
                               std::to_string(r));
    }
    Acc& acc = groups[GroupKey(table, r, keep)];
    if (acc.key_terms.empty()) {
      for (int c : keep) acc.key_terms.push_back(table.at(r, c));
    }
    acc.sum += *v;
    if (acc.first) {
      acc.best = *v;
      acc.first = false;
    } else if (op == AggOp::kMin) {
      acc.best = std::min(acc.best, *v);
    } else if (op == AggOp::kMax) {
      acc.best = std::max(acc.best, *v);
    }
    return Status::OK();
  };
  RDFA_RETURN_NOT_OK(ScanRows(table.num_rows(), ctx, scan));
  span.Arg("output_groups", static_cast<uint64_t>(groups.size()));

  std::vector<std::string> columns = keep_columns;
  columns.push_back(agg_column);
  sparql::ResultTable out(columns);
  for (auto& [key, acc] : groups) {
    std::vector<Term> row = std::move(acc.key_terms);
    double value =
        (op == AggOp::kSum || op == AggOp::kCount) ? acc.sum : acc.best;
    if (value == static_cast<int64_t>(value)) {
      row.push_back(Term::Integer(static_cast<int64_t>(value)));
    } else {
      row.push_back(Term::Double(value));
    }
    out.AddRow(std::move(row));
  }
  return AnswerFrame(std::move(out));
}

Result<AnswerFrame> RollUpAverage(const AnswerFrame& answer,
                                  const std::vector<std::string>& keep_columns,
                                  const std::string& sum_column,
                                  const std::string& count_column,
                                  const QueryContext& ctx) {
  TraceSpan span(ctx.tracer(), "rollup-cache");
  MetricsRegistry::Global()
      .GetCounter("rdfa_rollup_reuse_total",
                  "Roll-ups computed from a materialized answer frame")
      .Increment();
  const sparql::ResultTable& table = answer.table();
  span.Arg("input_rows", static_cast<uint64_t>(table.num_rows()));
  RDFA_ASSIGN_OR_RETURN(std::vector<int> keep,
                        ResolveColumns(table, keep_columns));
  int sum_idx = table.ColumnIndex(sum_column);
  int count_idx = table.ColumnIndex(count_column);
  if (sum_idx < 0) return Status::NotFound("no column " + sum_column);
  if (count_idx < 0) return Status::NotFound("no column " + count_column);

  struct Acc {
    std::vector<Term> key_terms;
    double sum = 0;
    double count = 0;
  };
  std::map<std::string, Acc> groups;
  auto scan = [&](size_t r) -> Status {
    auto s = Value::FromTerm(table.at(r, sum_idx)).AsNumeric();
    auto n = Value::FromTerm(table.at(r, count_idx)).AsNumeric();
    if (!s.has_value() || !n.has_value()) {
      return Status::TypeError("non-numeric sum/count cell in row " +
                               std::to_string(r));
    }
    Acc& acc = groups[GroupKey(table, r, keep)];
    if (acc.key_terms.empty()) {
      for (int c : keep) acc.key_terms.push_back(table.at(r, c));
    }
    acc.sum += *s;
    acc.count += *n;
    return Status::OK();
  };
  RDFA_RETURN_NOT_OK(ScanRows(table.num_rows(), ctx, scan));
  span.Arg("output_groups", static_cast<uint64_t>(groups.size()));

  std::vector<std::string> columns = keep_columns;
  columns.push_back("sum");
  columns.push_back("count");
  columns.push_back("avg");
  sparql::ResultTable out(columns);
  for (auto& [key, acc] : groups) {
    std::vector<Term> row = std::move(acc.key_terms);
    row.push_back(Term::Double(acc.sum));
    row.push_back(Term::Integer(static_cast<int64_t>(acc.count)));
    row.push_back(
        Term::Double(acc.count == 0 ? 0 : acc.sum / acc.count));
    out.AddRow(std::move(row));
  }
  return AnswerFrame(std::move(out));
}

RollupCache::RollupCache(CacheOptions opts)
    : cache_(opts, "rdfa_rollup_cache") {}

std::shared_ptr<const AnswerFrame> RollupCache::Get(const std::string& key,
                                                    uint64_t generation) {
  return cache_.Get(key, generation);
}

std::shared_ptr<const AnswerFrame> RollupCache::Get(
    const std::string& key,
    const std::function<uint64_t(const CacheFootprint&)>& stamp_fn) {
  return cache_.Get(key, stamp_fn);
}

void RollupCache::Put(const std::string& key, uint64_t generation,
                      AnswerFrame frame, CacheFootprint footprint) {
  size_t bytes = frame.table().ApproxBytes();
  cache_.Put(key, generation, std::move(frame), bytes, std::move(footprint));
}

Result<AnswerFrame> RollupCache::RollUp(
    const std::string& source_key, uint64_t generation,
    const AnswerFrame& answer, const std::vector<std::string>& keep_columns,
    const std::string& agg_column, AggOp op, const QueryContext& ctx) {
  std::string key = source_key + "|rollup|agg=" + agg_column +
                    "|op=" + std::to_string(static_cast<int>(op)) + "|keep=";
  for (const std::string& c : keep_columns) key += c + ",";
  std::shared_ptr<const AnswerFrame> hit = Get(key, generation);
  if (hit != nullptr) return *hit;
  RDFA_ASSIGN_OR_RETURN(
      AnswerFrame rolled,
      RollUpAnswer(answer, keep_columns, agg_column, op, ctx));
  Put(key, generation, rolled);
  return rolled;
}

}  // namespace rdfa::analytics
