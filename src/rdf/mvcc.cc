#include "rdf/mvcc.h"

#include <map>

#include "common/metrics.h"
#include "common/trace.h"

namespace rdfa::rdf {

/// Shared pin bookkeeping behind the snapshot-pin gauges. Owned jointly by
/// the MvccGraph and every outstanding Pin token, so a pin released after
/// the coordinator is destroyed still finds live state.
struct MvccGraph::PinTable {
  std::mutex mu;
  std::map<uint64_t, int> pins;  ///< epoch -> outstanding pin count
  uint64_t latest_epoch = 0;     ///< most recently published epoch

  /// Refreshes the gauges; call with `mu` held.
  void UpdateGaugesLocked() {
    MetricsRegistry& m = MetricsRegistry::Global();
    int total = 0;
    for (const auto& [epoch, n] : pins) total += n;
    m.GetGauge("rdfa_mvcc_snapshot_pins",
               "Outstanding MVCC snapshot pins across all epochs")
        .Set(total);
    const uint64_t min_pinned =
        pins.empty() ? latest_epoch : pins.begin()->first;
    m.GetGauge("rdfa_mvcc_min_pinned_epoch",
               "Oldest epoch still pinned by a reader")
        .Set(static_cast<double>(min_pinned));
    m.GetGauge("rdfa_mvcc_epoch_lag",
               "Epochs between the current version and the oldest pinned one")
        .Set(static_cast<double>(
            latest_epoch >= min_pinned ? latest_epoch - min_pinned : 0));
  }
};

MvccGraph::MvccGraph(std::shared_ptr<Graph> base)
    : MvccGraph(std::move(base), Options()) {}

MvccGraph::MvccGraph(std::shared_ptr<Graph> base, Options opts)
    : opts_(std::move(opts)),
      pin_table_(std::make_shared<PinTable>()),
      current_(base != nullptr ? std::move(base) : std::make_shared<Graph>()) {
  current_->Freeze();
}

Result<std::unique_ptr<MvccGraph>> MvccGraph::Open(Options opts,
                                                   std::unique_ptr<Graph> base) {
  auto mvcc = std::unique_ptr<MvccGraph>(
      new MvccGraph(std::move(base), Options(opts)));
  if (opts.wal_path.empty()) return mvcc;
  TraceSpan replay_span(opts.tracer.get(), "wal-replay");
  RDFA_ASSIGN_OR_RETURN(WriteAheadLog::ReplayResult replayed,
                        WriteAheadLog::Replay(opts.wal_path));
  for (const WalRecord& rec : replayed.records) {
    // Same skip-on-failure policy as Commit: recovery must converge on the
    // graph the original writer produced.
    (void)mvcc->ApplyRecord(mvcc->current_.get(), rec);
  }
  mvcc->current_->Freeze();
  replay_span.Arg("records", static_cast<uint64_t>(replayed.records.size()));
  replay_span.Arg("truncated_bytes", replayed.truncated_bytes);
  mvcc->open_info_.replayed_records = replayed.records.size();
  mvcc->open_info_.truncated_bytes = replayed.truncated_bytes;
  RDFA_ASSIGN_OR_RETURN(mvcc->wal_, WriteAheadLog::Open(opts.wal_path,
                                                        opts.wal_sync_every));
  return mvcc;
}

MvccGraph::Pin MvccGraph::Snapshot() const {
  Pin pin;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    pin.graph = current_;
    pin.epoch = epoch_;
  }
  std::shared_ptr<PinTable> table = pin_table_;
  const uint64_t epoch = pin.epoch;
  {
    std::lock_guard<std::mutex> tlock(table->mu);
    ++table->pins[epoch];
    table->UpdateGaugesLocked();
  }
  // The token's deleter releases this pin; it captures the table by
  // shared_ptr, so release is safe even after the coordinator dies.
  pin.token = std::shared_ptr<void>(
      static_cast<void*>(nullptr), [table, epoch](void*) {
        std::lock_guard<std::mutex> tlock(table->mu);
        auto it = table->pins.find(epoch);
        if (it != table->pins.end() && --it->second <= 0) {
          table->pins.erase(it);
        }
        table->UpdateGaugesLocked();
      });
  return pin;
}

uint64_t MvccGraph::Epoch() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return epoch_;
}

void MvccGraph::Insert(const Term& s, const Term& p, const Term& o) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  pending_.push_back(WalRecord::Insert(s, p, o));
}

void MvccGraph::Remove(const Term* s, const Term* p, const Term* o) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  pending_.push_back(WalRecord::Remove(s != nullptr, s ? *s : Term(),
                                       p != nullptr, p ? *p : Term(),
                                       o != nullptr, o ? *o : Term()));
}

Status MvccGraph::BufferUpdate(std::string sparql_update) {
  if (!opts_.update_fn) {
    return Status::Unsupported(
        "mvcc: no update_fn configured for SPARQL updates");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  pending_.push_back(WalRecord::Update(std::move(sparql_update)));
  return Status::OK();
}

size_t MvccGraph::pending_ops() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return pending_.size();
}

Status MvccGraph::ApplyRecord(Graph* g, const WalRecord& rec) const {
  switch (rec.op) {
    case WalRecord::Op::kInsert:
      g->Add(rec.s, rec.p, rec.o);
      return Status::OK();
    case WalRecord::Op::kRemove: {
      // Unresolvable bound lanes match nothing — the triple cannot exist.
      TermId s = kNoTermId, p = kNoTermId, o = kNoTermId;
      if (rec.has_s && (s = g->terms().Find(rec.s)) == kNoTermId) {
        return Status::OK();
      }
      if (rec.has_p && (p = g->terms().Find(rec.p)) == kNoTermId) {
        return Status::OK();
      }
      if (rec.has_o && (o = g->terms().Find(rec.o)) == kNoTermId) {
        return Status::OK();
      }
      g->RemoveMatching(rec.has_s ? s : kNoTermId, rec.has_p ? p : kNoTermId,
                        rec.has_o ? o : kNoTermId);
      return Status::OK();
    }
    case WalRecord::Op::kUpdate:
      if (!opts_.update_fn) {
        return Status::Unsupported("mvcc: no update_fn for replayed update");
      }
      return opts_.update_fn(g, rec.update);
  }
  return Status::Internal("mvcc: unknown WAL op");
}

Result<uint64_t> MvccGraph::Commit() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  if (pending_.empty()) return Epoch();
  Tracer* tracer = opts_.tracer.get();
  TraceSpan commit_span(tracer, "mvcc-commit");
  commit_span.Arg("ops", static_cast<uint64_t>(pending_.size()));
  // Durable before visible: the delta reaches stable storage before any
  // reader can observe the new version.
  if (wal_ != nullptr) {
    TraceSpan wal_span(tracer, "wal-append");
    for (const WalRecord& rec : pending_) {
      RDFA_RETURN_NOT_OK(wal_->Append(rec));
    }
    RDFA_RETURN_NOT_OK(wal_->Sync());
  }
  std::shared_ptr<Graph> base;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    base = current_;
  }
  // The commit-apply and commit-publish spans are their histograms' clocks.
  double apply_ms = 0;
  double publish_ms = 0;
  std::unique_ptr<Graph> next;
  {
    TraceSpan apply_span(tracer, "commit-apply", &apply_ms);
    next = base->Clone();
    for (const WalRecord& rec : pending_) {
      (void)ApplyRecord(next.get(), rec);  // skip-on-failure; see header
    }
    // Pre-freeze so no reader ever pays the index rebuild of a new epoch.
    next->Freeze();
  }
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics
      .GetHistogram("rdfa_mvcc_commit_apply_ms", Histogram::LatencyBoundsMs(),
                    "Commit clone+apply+freeze latency")
      .Observe(apply_ms);
  pending_.clear();
  uint64_t published;
  {
    TraceSpan publish_span(tracer, "commit-publish", &publish_ms);
    std::lock_guard<std::mutex> lock(snap_mu_);
    current_ = std::move(next);
    published = ++epoch_;
  }
  metrics
      .GetHistogram("rdfa_mvcc_commit_publish_ms",
                    Histogram::LatencyBoundsMs(),
                    "Commit version-swap latency (snapshot lock hold time)")
      .Observe(publish_ms);
  metrics
      .GetCounter("rdfa_mvcc_commits_total", "MVCC commits published")
      .Increment();
  metrics.GetGauge("rdfa_mvcc_epoch", "Current published MVCC epoch")
      .Set(static_cast<double>(published));
  {
    std::lock_guard<std::mutex> tlock(pin_table_->mu);
    pin_table_->latest_epoch = published;
    pin_table_->UpdateGaugesLocked();
  }
  commit_span.Arg("epoch", published);
  return published;
}

}  // namespace rdfa::rdf
