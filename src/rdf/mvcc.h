#ifndef RDFA_RDF_MVCC_H_
#define RDFA_RDF_MVCC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/graph.h"
#include "rdf/wal.h"

namespace rdfa {
class Tracer;
}

namespace rdfa::rdf {

/// Epoch-based MVCC coordinator over immutable Graph versions.
///
/// Readers call Snapshot() and get a cheap shared_ptr pin of the current
/// version — no graph lock is held across a query, and a version a reader
/// is pinned to is never mutated again (its term table still accepts
/// interning of computed literals, which is internally synchronized and
/// invisible to the triple set). Writers buffer mutations into a pending
/// delta; Commit() merges the delta at an epoch boundary: it appends the
/// ops to the WAL and fsyncs (durable before visible), clones the current
/// version, applies the delta to the clone, freezes its indexes, and
/// publishes it as the next epoch. Readers racing a commit simply keep
/// their pin; later queries see the new version.
///
/// With `Options::wal_path` set, every committed delta is durable: Open()
/// replays the log (tolerating a torn tail from a crash mid-append) and
/// reconstructs the pre-crash graph without reparsing any source data.
class MvccGraph {
 public:
  /// Applies a buffered SPARQL update to a graph — injected by the layer
  /// that owns a SPARQL engine, since rdf/ sits below sparql/. Commit and
  /// replay both use it, so recovery re-runs updates identically.
  using UpdateFn = std::function<Status(Graph*, const std::string&)>;

  struct Options {
    std::string wal_path;      ///< empty = no durability
    size_t wal_sync_every = 1; ///< fsync batching for intra-commit appends
    UpdateFn update_fn;        ///< required to buffer/replay SPARQL updates
    /// Optional tracer: Open() records a "wal-replay" span, Commit() a
    /// "mvcc-commit" span with "wal-append" / "commit-apply" /
    /// "commit-publish" children. Null disables (zero overhead).
    std::shared_ptr<Tracer> tracer;
  };

  /// A pinned snapshot: the immutable graph version plus the epoch it
  /// belongs to. Holding the shared_ptr keeps the version alive even after
  /// later commits supersede it.
  struct Pin {
    std::shared_ptr<Graph> graph;
    uint64_t epoch = 0;
    /// Pin-tracking token: its destructor decrements this epoch's pin count
    /// in the coordinator's pin table (which feeds the
    /// rdfa_mvcc_snapshot_pins / min_pinned_epoch / epoch_lag gauges). The
    /// table is shared, so a pin outliving the MvccGraph stays safe.
    std::shared_ptr<void> token;
  };

  struct OpenInfo {
    uint64_t replayed_records = 0;
    uint64_t truncated_bytes = 0;
  };

  /// An MvccGraph without durability, seeded with `base` (or empty). The
  /// store shares ownership of `base`, which becomes epoch 0 and, like every
  /// published version, must not be mutated again.
  explicit MvccGraph(std::shared_ptr<Graph> base = nullptr);
  MvccGraph(std::shared_ptr<Graph> base, Options opts);

  /// Opens with `opts` (typically with a WAL path): replays the log into
  /// `base`, truncates any torn tail, and positions the WAL for append.
  static Result<std::unique_ptr<MvccGraph>> Open(
      Options opts, std::unique_ptr<Graph> base = nullptr);

  /// Pins the current version. Cheap (one mutex-guarded shared_ptr copy);
  /// never blocks behind a commit's clone/apply work.
  Pin Snapshot() const;

  uint64_t Epoch() const;
  OpenInfo open_info() const { return open_info_; }
  bool durable() const { return wal_ != nullptr; }

  // ---- writer API (thread-safe; writers serialize on an internal mutex,
  // readers are never blocked) --------------------------------------------

  void Insert(const Term& s, const Term& p, const Term& o);
  /// Buffers a pattern removal; absent optionals are wildcards.
  void Remove(const Term* s, const Term* p, const Term* o);
  /// Buffers a SPARQL update (requires Options::update_fn).
  Status BufferUpdate(std::string sparql_update);
  size_t pending_ops() const;

  /// Merges the pending delta into the next version and returns the new
  /// epoch. WAL append + fsync happens before the version is published. A
  /// record whose application fails (e.g. a malformed buffered update) is
  /// skipped — deliberately the same policy replay uses, so recovery and
  /// the original commit converge on the same graph.
  Result<uint64_t> Commit();

 private:
  struct PinTable;

  Status ApplyRecord(Graph* g, const WalRecord& rec) const;

  Options opts_;
  std::shared_ptr<PinTable> pin_table_;
  OpenInfo open_info_;
  std::unique_ptr<WriteAheadLog> wal_;

  mutable std::mutex snap_mu_;  ///< guards current_ + epoch_ publication
  std::shared_ptr<Graph> current_;
  uint64_t epoch_ = 0;

  mutable std::mutex writer_mu_;  ///< serializes writers and commits
  std::vector<WalRecord> pending_;
};

}  // namespace rdfa::rdf

#endif  // RDFA_RDF_MVCC_H_
