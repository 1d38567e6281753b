#ifndef RDFA_RDF_GRAPH_H_
#define RDFA_RDF_GRAPH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/footprint.h"
#include "rdf/graph_stats.h"
#include "rdf/mapped_graph.h"
#include "rdf/term.h"
#include "rdf/term_table.h"

namespace rdfa::rdf {

/// An in-memory RDF graph with set semantics over interned triples.
///
/// Three sorted permutation indexes (SPO, POS, OSP) are maintained lazily;
/// any triple pattern with 0-3 bound positions is answered by a binary-search
/// range scan over the best-fitting index. This is the storage substrate the
/// SPARQL engine, the RDFS reasoner and the faceted-search model all share.
///
/// Storage backends: a Graph normally owns its triples on the heap, but
/// AttachMapped() lets an empty graph serve every read path straight off a
/// compressed RDFA3 snapshot (usually an mmap — see MappedGraphView) with no
/// up-front decode. Range semantics, estimates and enumeration order are
/// byte-identical across the two backends; the first mutation transparently
/// materializes the graph to the heap and detaches the view, so MVCC commits
/// (Clone + apply) work unchanged with a mapped epoch-0 base.
///
/// Thread-safety contract: all const read paths (ForEachMatch / Match /
/// CountMatch / EstimateMatch / Contains / Freeze) are safe to call from any
/// number of threads concurrently, including the first-touch lazy index
/// rebuild, which is serialized behind an internal mutex with a
/// generation-counted double-check. Mutation (Add / AddIds / RemoveMatching /
/// move construction) requires exclusive access: no reader may run
/// concurrently with a writer. The morsel-parallel executor relies on this —
/// it shares one const Graph across worker threads and never mutates it
/// mid-query.
class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&& other) noexcept { *this = std::move(other); }
  Graph& operator=(Graph&& other) noexcept {
    // Moving requires exclusive access to both graphs (see contract above),
    // so the index mutexes themselves need not — and cannot — be moved.
    if (this != &other) {
      terms_ = std::move(other.terms_);
      other.terms_ = std::make_shared<TermTable>();
      triples_ = std::move(other.triples_);
      triple_set_ = std::move(other.triple_set_);
      spo_ = std::move(other.spo_);
      pos_ = std::move(other.pos_);
      osp_ = std::move(other.osp_);
      pso_ = std::move(other.pso_);
      sop_ = std::move(other.sop_);
      ops_ = std::move(other.ops_);
      sec_dirty_.store(other.sec_dirty_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      index_generation_ = other.index_generation_;
      stats_ = std::move(other.stats_);
      // The destination graph's content changed wholesale: merge to a stamp
      // strictly past both counters so artifacts cached against either graph
      // go stale. Each counter is loaded exactly once into a local (the
      // exclusive-access contract makes the loads well-defined; a single
      // load per counter keeps the sum coherent even if that contract is
      // bent), and every per-predicate epoch is raised to the merged value:
      // a k-predicate footprint stamp becomes k * merged, strictly greater
      // than any stamp either graph could have produced for that footprint,
      // so a moved-into graph can never alias a live cache generation.
      const uint64_t mine = generation_.load(std::memory_order_acquire);
      const uint64_t theirs = other.generation_.load(std::memory_order_acquire);
      const uint64_t merged = mine + theirs + 1;
      generation_.store(merged, std::memory_order_release);
      pred_gens_ = std::move(other.pred_gens_);
      for (auto& entry : pred_gens_) entry.second = merged;
      dirty_.store(other.dirty_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      stats_dirty_.store(other.stats_dirty_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      view_ = std::move(other.view_);
      other.view_.reset();
      triples_ready_.store(
          other.triples_ready_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      other.triples_ready_.store(true, std::memory_order_relaxed);
    }
    return *this;
  }

  /// Index permutations. The first three (SPO, POS, OSP) are the primaries:
  /// maintained lazily by EnsureIndexes, persisted in snapshots, and served
  /// straight off a mapped RDFA3 view. The last three (PSO, SOP, OPS) are
  /// secondaries: built in memory on first use so the planner can obtain any
  /// (bound-prefix, sort-lane) combination — every subset of {s, p, o}
  /// followed by any free lane is a complete prefix of one of the six. Each
  /// stores every triple re-ordered into the named lane order, sorted
  /// lexicographically, so any *prefix* of bound lanes narrows to a
  /// contiguous range by binary search.
  enum Perm { kPermSPO, kPermPOS, kPermOSP, kPermPSO, kPermSOP, kPermOPS };
  static constexpr int kNumPerms = 6;
  /// Lane order of each permutation: kPermLanes[perm][i] is the triple lane
  /// (0 = s, 1 = p, 2 = o) stored in key lane i.
  static constexpr int kPermLanes[kNumPerms][3] = {
      {0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {1, 0, 2}, {0, 2, 1}, {2, 1, 0}};

  /// Picks the permutation with the longest *bound prefix* for the given
  /// boundness pattern (e.g. s+o bound -> OSP, whose (o, s) prefix covers
  /// both, rather than SPO narrowed on s alone). Ties break SPO > POS > OSP
  /// for determinism, and only the three primaries are considered — this is
  /// the scan-order contract every pre-planner call site (and the hash
  /// join's byte-identity argument) relies on. Every subset of {s, p, o} is
  /// a complete prefix of one of the three permutations, so the chosen
  /// range contains exactly the matching triples whenever all bound lanes
  /// fall in the prefix.
  static Perm ChoosePerm(bool s_bound, bool p_bound, bool o_bound) {
    const int spo = s_bound ? (p_bound ? (o_bound ? 3 : 2) : 1) : 0;
    const int pos = p_bound ? (o_bound ? (s_bound ? 3 : 2) : 1) : 0;
    const int osp = o_bound ? (s_bound ? (p_bound ? 3 : 2) : 1) : 0;
    if (spo >= pos && spo >= osp) return kPermSPO;
    if (pos >= osp) return kPermPOS;
    return kPermOSP;
  }

  /// As above, but considers all six permutations and — among those with
  /// the longest bound prefix — prefers the one whose first *free* lane is
  /// `prefer_lane` (0 = s, 1 = p, 2 = o; -1 = no preference). The planner
  /// uses this to pick scan orders that feed downstream merge joins: ties
  /// the 3-arg overload resolves by enum order (forfeiting the interesting
  /// order) resolve here toward the requested sort lane. Primaries win
  /// remaining ties, then enum order, so with no (or an unsatisfiable)
  /// preference the choice degrades to the 3-arg overload's.
  static Perm ChoosePerm(bool s_bound, bool p_bound, bool o_bound,
                         int prefer_lane) {
    const bool bound[3] = {s_bound, p_bound, o_bound};
    int best = 0, best_prefix = -1, best_pref = -1;
    for (int perm = 0; perm < kNumPerms; ++perm) {
      int prefix = 0;
      while (prefix < 3 && bound[kPermLanes[perm][prefix]]) ++prefix;
      const int pref =
          prefix < 3 && kPermLanes[perm][prefix] == prefer_lane ? 1 : 0;
      if (prefix > best_prefix ||
          (prefix == best_prefix && pref > best_pref)) {
        best = perm;
        best_prefix = prefix;
        best_pref = pref;
      }
    }
    return static_cast<Perm>(best);
  }

  TermTable& terms() { return *terms_; }
  const TermTable& terms() const { return *terms_; }
  /// Shared handle on the term table: result tables hold their cells as ids
  /// into it, so it outlives this graph for as long as they do.
  std::shared_ptr<const TermTable> shared_terms() const { return terms_; }

  /// Adds a triple of terms (interning them); returns false if the triple
  /// was already present.
  bool Add(const Term& s, const Term& p, const Term& o);

  /// Adds a triple of already-interned ids; returns false on duplicates.
  bool AddIds(TripleId t);

  bool Contains(TermId s, TermId p, TermId o) const;

  /// Removes every triple matching the pattern (kNoTermId = wildcard) in
  /// one pass; returns how many were removed. Terms stay interned — ids
  /// remain valid.
  size_t RemoveMatching(TermId s, TermId p, TermId o);

  size_t size() const {
    return view_ != nullptr ? view_->triple_count() : triples_.size();
  }

  /// The triple list in enumeration order. On a mapped graph the list is
  /// materialized (in SPO order, matching a heap load of the same snapshot)
  /// on first call; pattern scans never need it.
  const std::vector<TripleId>& triples() const {
    if (view_ != nullptr && !triples_ready_.load(std::memory_order_acquire)) {
      MaterializeTriples();
    }
    return triples_;
  }

  /// Backs this (empty) graph with a parsed RDFA3 snapshot view: reads are
  /// answered from the compressed, lazily-decoded snapshot; stats and
  /// generation stamps are adopted from it. The first mutation materializes
  /// to the heap and detaches. Requires exclusive access.
  void AttachMapped(std::shared_ptr<const MappedGraphView> view);

  /// The attached snapshot view, or nullptr once detached / never attached.
  const MappedGraphView* mapped() const { return view_.get(); }

  /// Eagerly builds the permutation indexes if stale. Safe (and cheap when
  /// already built) from any thread; the executor calls it once per query so
  /// the first-touch rebuild cost is attributed to index_build time rather
  /// than to the first pattern scan.
  void Freeze() const { EnsureIndexes(); }

  /// Number of index rebuilds performed so far (observability / tests).
  uint64_t index_generation() const {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    return index_generation_;
  }

  /// Monotonic mutation counter: bumped every time the triple set actually
  /// changes (an insert that was not a duplicate, a removal that matched at
  /// least one triple). Cached artifacts — query answers, reordered plans,
  /// roll-ups — are stamped with the generation they were computed at and
  /// revalidated against this value, so a stale artifact can never be
  /// served after an update. Distinct from index_generation(), which counts
  /// index *rebuilds* (several mutations may share one rebuild).
  uint64_t Generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Per-predicate epoch: the value Generation() had just after the last
  /// effective mutation touching predicate `p` (0 = never mutated). Epochs
  /// are monotone per predicate and strictly bounded by Generation().
  uint64_t PredicateGeneration(TermId p) const {
    std::lock_guard<std::mutex> lock(pred_mu_);
    auto it = pred_gens_.find(p);
    return it == pred_gens_.end() ? 0 : it->second;
  }

  /// Combined validation stamp for a cached artifact's predicate footprint:
  /// the sum of the epochs of its named predicates (an absent predicate
  /// contributes 0 and stays 0 until something mutates it). A wildcard
  /// footprint falls back to the global Generation(). Each component is
  /// monotone, so the sum changes iff some footprint predicate mutated —
  /// updates touching *other* predicates leave the stamp (and thus every
  /// cache entry carrying this footprint) intact.
  uint64_t FootprintStamp(const CacheFootprint& fp) const;

  /// Copy of the triples, generation and predicate epochs that *shares*
  /// this graph's term table: the table is append-only, so every version
  /// forked this way reads one dictionary (terms a later version interns
  /// are simply unused by earlier ones). Indexes and stats are rebuilt
  /// lazily by the copy (Freeze() it before publishing to readers). Safe
  /// under concurrent const readers of *this*, including readers interning
  /// computed literals — this is how an MVCC commit forks the next version
  /// off a pinned snapshot.
  std::unique_ptr<Graph> Clone() const;

  /// Calls `fn(const TripleId&)` for every triple matching the pattern;
  /// kNoTermId positions are wildcards. Uses the longest-bound-prefix
  /// permutation, so the narrowed range contains exactly the matches. A
  /// one-shot ProbeCursor: callers that probe many keys in ascending order
  /// keep a cursor instead.
  template <typename Fn>
  void ForEachMatch(TermId s, TermId p, TermId o, Fn&& fn) const;

  /// Resumable ForEachMatch; see the class comment below.
  class ProbeCursor;

  /// Like ForEachMatch but scans the *given* permutation, enumerating
  /// matches in that permutation's sort order. The order-preserving hash
  /// join relies on this: the build side must enumerate in exactly the order
  /// a per-row NLJ scan over the same permutation would.
  template <typename Fn>
  void ForEachInPerm(Perm perm, TermId s, TermId p, TermId o, Fn&& fn) const {
    if (view_ != nullptr && perm <= kPermOSP) {
      view_->ForEachInPerm(static_cast<int>(perm), s, p, o,
                           std::forward<Fn>(fn));
      return;
    }
    // Secondary permutations are not part of the snapshot format; a mapped
    // graph serves them from the in-memory secondaries, built off the
    // materialized triple list so enumeration order matches a heap load.
    if (perm >= kPermPSO) {
      EnsureSecondaryIndexes();
    } else {
      EnsureIndexes();
    }
    switch (perm) {
      case kPermSPO: ScanIndex(spo_, {s, p, o}, kPermSPO, fn); break;
      case kPermPOS: ScanIndex(pos_, {p, o, s}, kPermPOS, fn); break;
      case kPermOSP: ScanIndex(osp_, {o, s, p}, kPermOSP, fn); break;
      case kPermPSO: ScanIndex(pso_, {p, s, o}, kPermPSO, fn); break;
      case kPermSOP: ScanIndex(sop_, {s, o, p}, kPermSOP, fn); break;
      case kPermOPS: ScanIndex(ops_, {o, p, s}, kPermOPS, fn); break;
    }
  }

  /// Collects matches into a vector.
  std::vector<TripleId> Match(TermId s, TermId p, TermId o) const;

  /// Number of matches (scans the narrowed range).
  size_t CountMatch(TermId s, TermId p, TermId o) const;

  /// Estimated result size used by the BGP join reorderer: the width of the
  /// narrowed index range, without filtering. Cheap upper bound on
  /// CountMatch. With longest-bound-prefix selection every bound lane lands
  /// in the prefix, so this is exact for any constant-only pattern.
  size_t EstimateMatch(TermId s, TermId p, TermId o) const;

  /// Width of the range a ForEachInPerm scan over `perm` would narrow to:
  /// only the *leading* bound run of the permuted key binary-searches, later
  /// bound lanes are filtered inline. This is the number of index rows such
  /// a scan enumerates, which the adaptive join uses as its build cost.
  size_t EstimateInPerm(Perm perm, TermId s, TermId p, TermId o) const;

  /// Per-predicate and global cardinality statistics, computed during the
  /// same pass as the index rebuild (or restored from a snapshot). Valid
  /// until the next mutation; same thread-safety as the indexes.
  const GraphStats& Stats() const {
    EnsureIndexes();
    return stats_;
  }

  /// Installs precomputed statistics (e.g. from a binary snapshot) so the
  /// next EnsureIndexes skips the stats pass. Requires exclusive access,
  /// like any mutation.
  void RestoreStats(GraphStats stats) {
    stats_ = std::move(stats);
    stats_dirty_.store(false, std::memory_order_release);
  }

  /// Installs mutation-generation stamps from a snapshot, replacing the ones
  /// accumulated while loading. Keeps cache validation stamps stable across
  /// a save/load round trip. Requires exclusive access.
  void RestoreGenerations(
      uint64_t generation,
      const std::vector<std::pair<TermId, uint64_t>>& pred_gens) {
    generation_.store(generation, std::memory_order_release);
    std::lock_guard<std::mutex> lock(pred_mu_);
    pred_gens_.clear();
    pred_gens_.insert(pred_gens.begin(), pred_gens.end());
  }

  /// Snapshot of every per-predicate epoch (unordered); the snapshot writer
  /// sorts by predicate id for deterministic output.
  std::vector<std::pair<TermId, uint64_t>> PredicateGenerations() const {
    std::lock_guard<std::mutex> lock(pred_mu_);
    return {pred_gens_.begin(), pred_gens_.end()};
  }

  /// Streaming cursor over one narrowed permutation range, the scan half of
  /// the merge join. The constant lanes of the pattern must form a complete
  /// prefix of `perm`; the merge lane is the first free lane after them, so
  /// entries stream in ascending merge-key order. SeekGE is the sideways-
  /// information-passing hook: it binary-searches forward to the next
  /// candidate key, and on the mapped backend skips whole posting-list
  /// blocks without decoding them. decoded() counts entries actually
  /// materialized (the merge join's rows-scanned contribution); seeks()
  /// counts SeekGE calls separately — a seek is a binary search, not a row
  /// enumeration, so the two are never conflated in ExecStats.
  class MergeCursor;

  /// Opens a cursor over `perm` narrowed to the pattern's constant lanes
  /// (kNoTermId = free). Primaries are served off the mapped view when one
  /// is attached (lazy per-block decode); secondaries and heap graphs use
  /// the sorted in-memory index.
  MergeCursor OpenMergeCursor(Perm perm, TermId s, TermId p, TermId o) const;

  /// Lazily builds the three secondary permutations (PSO, SOP, OPS) from
  /// the triple list. Not persisted in snapshots: the planner pays this
  /// build on first use of a sort order the primaries cannot provide, and
  /// calls this up front so the build is timed as its own stage. Same
  /// publication discipline as the primaries (atomic fast path + mutex
  /// double-check), behind its own flag so primary-only workloads never
  /// pay.
  void EnsureSecondaryIndexes() const;
  /// True once the secondary permutations are built and current.
  bool secondary_indexes_built() const {
    return !sec_dirty_.load(std::memory_order_acquire);
  }

 private:
  // A permuted triple used as an index entry; lexicographic order.
  struct Key {
    TermId a, b, c;
    friend bool operator<(const Key& x, const Key& y) {
      if (x.a != y.a) return x.a < y.a;
      if (x.b != y.b) return x.b < y.b;
      return x.c < y.c;
    }
  };

  static TripleId Unpermute(const Key& k, Perm perm) {
    switch (perm) {
      case kPermSPO: return {k.a, k.b, k.c};
      case kPermPOS: return {k.c, k.a, k.b};
      case kPermOSP: return {k.b, k.c, k.a};
      case kPermPSO: return {k.b, k.a, k.c};
      case kPermSOP: return {k.a, k.c, k.b};
      case kPermOPS: return {k.c, k.b, k.a};
    }
    return {};
  }

  static Key PermuteKey(Perm perm, TermId s, TermId p, TermId o) {
    const TermId lanes[3] = {s, p, o};
    return {lanes[kPermLanes[perm][0]], lanes[kPermLanes[perm][1]],
            lanes[kPermLanes[perm][2]]};
  }

  struct TripleHash {
    size_t operator()(const TripleId& t) const {
      uint64_t h = static_cast<uint64_t>(t.s) * 0x9E3779B97F4A7C15ull;
      h ^= static_cast<uint64_t>(t.p) * 0xC2B2AE3D27D4EB4Full + (h << 6);
      h ^= static_cast<uint64_t>(t.o) * 0x165667B19E3779F9ull + (h >> 3);
      return static_cast<size_t>(h);
    }
  };

  // Lower / upper probe keys of `key`: the bound prefix lanes stay, the
  // first wildcard lane and everything after it go to 0 / MAX.
  static Key LowKey(const Key& key) {
    if (key.a == kNoTermId) return {0, 0, 0};
    if (key.b == kNoTermId) return {key.a, 0, 0};
    return {key.a, key.b, key.c == kNoTermId ? 0 : key.c};
  }
  static Key HighKey(const Key& key) {
    if (key.a == kNoTermId) return {kNoTermId, kNoTermId, kNoTermId};
    if (key.b == kNoTermId) return {key.a, kNoTermId, kNoTermId};
    return {key.a, key.b, key.c};  // a wildcard c already reads as MAX
  }

  // [lo, hi) range of entries in `index` whose bound prefix lanes match
  // `key`. Lanes with kNoTermId in `key` are wildcards; only the leading run
  // of bound lanes narrows the search. The lower end is a binary search
  // when `from` is 0 and otherwise gallops from `from`, which requires every
  // entry before `from` to sort below LowKey(key); the upper end always
  // gallops from the lower one, so a narrow range costs O(log width).
  static std::pair<size_t, size_t> Range(const std::vector<Key>& index,
                                         const Key& key, size_t from = 0);

  // Calls fn for every entry of [lo, hi) that matches `key`'s bound lanes
  // past the prefix (the range only narrows on the leading bound run).
  template <typename Fn>
  static void ScanRange(const std::vector<Key>& index, size_t lo, size_t hi,
                        const Key& key, Perm perm, Fn&& fn) {
    for (size_t i = lo; i < hi; ++i) {
      const Key& k = index[i];
      if ((key.b == kNoTermId || k.b == key.b) &&
          (key.c == kNoTermId || k.c == key.c)) {
        fn(Unpermute(k, perm));
      }
    }
  }

  template <typename Fn>
  void ScanIndex(const std::vector<Key>& index, Key key, Perm perm,
                 Fn&& fn) const {
    auto [lo, hi] = Range(index, key);
    ScanRange(index, lo, hi, key, perm, fn);
  }

  // Lazily (re)builds the three permutation indexes. Safe under concurrent
  // const readers: the dirty flag is an atomic fast path, the rebuild runs
  // exactly once behind `index_mu_` (double-checked), and the release store
  // of `dirty_` publishes the built indexes to later lock-free readers.
  void EnsureIndexes() const;

  // The sorted index vector for `perm`, built on demand. Callers on a
  // mapped graph should prefer the view for primaries; this is the heap /
  // secondary fallback the merge cursor uses.
  const std::vector<Key>& IndexFor(Perm perm) const;

  // Recomputes stats_ from the freshly sorted indexes. Caller must hold
  // index_mu_ exclusively with spo_/pos_/osp_ built.
  void ComputeStatsLocked() const;

  // Decodes the attached view's SPO permutation into triples_ (idempotent,
  // safe under concurrent readers). Mutable representation change only: the
  // observable triple list is unchanged.
  void MaterializeTriples() const;

  // Hydrates triples_ + triple_set_ from the attached view and detaches it,
  // turning this into a plain heap graph. No-op without a view. Requires
  // exclusive access; every mutating method calls it first.
  void MaterializeForWrite();

  // Never null; shared with Clone()d versions and with result tables.
  std::shared_ptr<TermTable> terms_ = std::make_shared<TermTable>();
  // Mutable because a mapped graph materializes the list lazily on first
  // triples() access; see MaterializeTriples.
  mutable std::vector<TripleId> triples_;
  std::unordered_set<TripleId, TripleHash> triple_set_;

  // Bumped by every effective mutation; see Generation().
  std::atomic<uint64_t> generation_{0};
  // Per-predicate epochs; see PredicateGeneration(). The mutex makes stamp
  // reads cheap and safe even against a (contract-violating) concurrent
  // mutation; it is never held across user code.
  mutable std::mutex pred_mu_;
  std::unordered_map<TermId, uint64_t> pred_gens_;
  mutable std::atomic<bool> dirty_{true};
  // Set alongside dirty_ on mutation; cleared by the stats pass in
  // EnsureIndexes or by RestoreStats. Invariant: stats_dirty_ implies
  // dirty_, so a clean index always has clean stats.
  mutable std::atomic<bool> stats_dirty_{true};
  mutable std::shared_mutex index_mu_;
  mutable uint64_t index_generation_ = 0;
  mutable std::vector<Key> spo_;
  mutable std::vector<Key> pos_;
  mutable std::vector<Key> osp_;
  // Secondary permutations; see EnsureSecondaryIndexes.
  mutable std::atomic<bool> sec_dirty_{true};
  mutable std::shared_mutex sec_mu_;
  mutable std::vector<Key> pso_;
  mutable std::vector<Key> sop_;
  mutable std::vector<Key> ops_;
  mutable GraphStats stats_;

  // RDFA3 snapshot backend; null for a plain heap graph. Detached (under
  // the exclusive-access contract) by the first mutation.
  std::shared_ptr<const MappedGraphView> view_;
  mutable std::mutex materialize_mu_;
  mutable std::atomic<bool> triples_ready_{true};  ///< false once attached
};

/// A ForEachMatch that remembers where its last probe landed. When the next
/// probe uses the same permutation and its lower probe key does not sort
/// below the previous one, the range search gallops forward from the
/// previous lower bound instead of binary searching the whole index;
/// otherwise it falls back to a full search. Results are exactly
/// ForEachMatch's whatever the key order; ascending keys (a sorted
/// extension, or join input sorted on the probed lane) only make the probes
/// cheaper. A mapped graph serves primaries straight off its view, as
/// ForEachMatch always has. The cursor reads the index in place, so it must
/// not outlive a mutation of the graph; one cursor is not thread-safe, so
/// parallel callers keep one per morsel.
class Graph::ProbeCursor {
 public:
  explicit ProbeCursor(const Graph& graph) : graph_(&graph) {}

  template <typename Fn>
  void ForEachMatch(TermId s, TermId p, TermId o, Fn&& fn) {
    const Graph& g = *graph_;
    if (s == kNoTermId && p == kNoTermId && o == kNoTermId) {
      // A mapped graph enumerates its SPO permutation; a heap graph its
      // insertion order. Heap loads of RDFA3 snapshots insert in SPO order,
      // so the two backends agree byte-for-byte.
      if (g.view_ != nullptr) {
        g.view_->ForEachInPerm(kPermSPO, s, p, o, std::forward<Fn>(fn));
        return;
      }
      g.EnsureIndexes();
      for (const TripleId& t : g.triples_) fn(t);
      return;
    }
    const Perm perm =
        ChoosePerm(s != kNoTermId, p != kNoTermId, o != kNoTermId);
    if (g.view_ != nullptr) {
      g.view_->ForEachInPerm(static_cast<int>(perm), s, p, o,
                             std::forward<Fn>(fn));
      return;
    }
    const std::vector<Key>& index = g.IndexFor(perm);
    const Key key = PermuteKey(perm, s, p, o);
    const Key low = LowKey(key);
    const bool resume = perm == perm_ && !(low < last_low_);
    const auto [lo, hi] = Range(index, key, resume ? last_lo_ : 0);
    perm_ = perm;
    last_low_ = low;
    last_lo_ = lo;
    ScanRange(index, lo, hi, key, perm, fn);
  }

 private:
  const Graph* graph_;
  int perm_ = -1;      ///< permutation of the last probe; -1 before any
  Key last_low_{};     ///< lower probe key of the last probe
  size_t last_lo_ = 0;  ///< its lower bound in the index
};

template <typename Fn>
void Graph::ForEachMatch(TermId s, TermId p, TermId o, Fn&& fn) const {
  ProbeCursor(*this).ForEachMatch(s, p, o, std::forward<Fn>(fn));
}

class Graph::MergeCursor {
 public:
  MergeCursor() = default;

  bool at_end() const { return pos_ >= hi_; }
  /// Merge-lane value (the sort key) of the current entry.
  TermId key() const { return Lane(Entry(), merge_lane_); }
  /// The current entry as a triple.
  TripleId triple() const { return Graph::Unpermute(Entry(), perm_); }
  /// Advances one entry; the new entry (if any) counts as decoded.
  void Next() {
    ++pos_;
    if (pos_ < hi_) ++decoded_;
  }
  /// Jumps to the first entry at or past merge key `v` (keys must be sought
  /// in ascending order). Entries skipped over are never decoded — on the
  /// mapped backend only the per-block index is touched.
  void SeekGE(TermId v);

  /// Entries materialized so far (rows-scanned accounting).
  size_t decoded() const { return decoded_; }
  /// SeekGE calls so far (reported separately from decoded entries).
  size_t seeks() const { return seeks_; }

 private:
  friend class Graph;
  Key Entry() const;
  static TermId Lane(const Key& k, int lane) {
    return lane == 0 ? k.a : lane == 1 ? k.b : k.c;
  }

  Perm perm_ = kPermSPO;
  int merge_lane_ = 0;  ///< key lane holding the merge variable (0..2)
  Key prefix_{0, 0, 0};  ///< constant lanes; zero elsewhere (seek probes)
  const std::vector<Key>* index_ = nullptr;  ///< heap / secondary backend
  const MappedGraphView* view_ = nullptr;    ///< mapped primary backend
  size_t lo_ = 0, hi_ = 0, pos_ = 0;
  size_t decoded_ = 0, seeks_ = 0;
  // Mapped flavor: the one block the cursor position lies in, decoded
  // lazily (kPermBlock keys at a time, same as ForEachInPerm).
  mutable std::vector<MappedGraphView::PermKey> block_;
  mutable size_t block_id_ = static_cast<size_t>(-1);
};

}  // namespace rdfa::rdf

#endif  // RDFA_RDF_GRAPH_H_
