#ifndef RDFA_RDF_MAPPED_GRAPH_H_
#define RDFA_RDF_MAPPED_GRAPH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "fs/mmap_file.h"
#include "rdf/graph_stats.h"
#include "rdf/term.h"
#include "rdf/term_table.h"

namespace rdfa::rdf {

/// Read-only view over an RDFA3 compressed snapshot, usually backed by an
/// mmap of the file (see binary_io.h for the writer and the section
/// layout). Opening the view parses and validates the section table, the
/// per-section headers, the (small) stats and generation blocks, and the
/// datatype/language dictionaries — but decodes **no** terms and **no**
/// posting lists. Both dictionaries of work are paid lazily:
///
///  - Triple scans decode vbyte/difference-coded key blocks per range scan:
///    a bound-prefix lookup touches only the O(1) blocks overlapping its
///    range, never the whole permutation.
///  - Term lookups decode the front-coded term dictionary per 16-term
///    block; the TermTable above materializes per-chunk on first touch.
///
/// The view is immutable and internally stateless after Open, so any number
/// of threads may scan it concurrently; rdf::Graph uses it as an alternate
/// storage backend behind ForEachInPerm/EstimateInPerm (see graph.h).
class MappedGraphView : public TermDictSource {
 public:
  /// Keys of one sorted permutation, in permuted lane order — identical
  /// ordering to the heap Graph's private index entries.
  struct PermKey {
    uint32_t a = 0, b = 0, c = 0;
    friend bool operator<(const PermKey& x, const PermKey& y) {
      if (x.a != y.a) return x.a < y.a;
      if (x.b != y.b) return x.b < y.b;
      return x.c < y.c;
    }
  };

  /// Keys per compressed permutation block. A range scan decodes whole
  /// blocks, so this bounds both the wasted decode at range edges and the
  /// stack scratch a scan needs (128 * 12 B).
  static constexpr size_t kPermBlock = 128;
  /// Terms per front-coded dictionary block (prefix compression restarts
  /// at every block boundary).
  static constexpr size_t kTermBlock = 16;

  /// Maps `path` and parses/validates the snapshot structure. ParseError
  /// for anything that is not a structurally sound RDFA3 file.
  static Result<std::shared_ptr<const MappedGraphView>> Open(
      const std::string& path);

  /// Parses a snapshot already in memory. `backing` (nullable) is retained
  /// so the bytes outlive the view; when null, `data` must outlive it.
  static Result<std::shared_ptr<const MappedGraphView>> Parse(
      std::string_view data, std::shared_ptr<const fs::MmapFile> backing);

  size_t triple_count() const { return perms_[0].key_count; }
  size_t file_bytes() const { return data_.size(); }
  bool mmap_backed() const { return backing_ != nullptr && backing_->mapped(); }

  // TermDictSource ---------------------------------------------------------
  size_t term_count() const override { return n_terms_; }
  Term DecodeTerm(TermId id) const override;
  void DecodeRange(TermId begin, TermId end, Term* out) const override;

  const GraphStats& stats() const { return stats_; }
  uint64_t generation() const { return generation_; }
  const std::vector<std::pair<TermId, uint64_t>>& predicate_generations()
      const {
    return pred_gens_;
  }

  // Permutation scans. `perm` mirrors Graph::Perm: 0 = SPO, 1 = POS,
  // 2 = OSP. ----------------------------------------------------------------

  /// Exact [lo, hi) position range whose *leading* bound run matches the
  /// permuted probe (kNoTermId lanes are wildcards) — byte-for-byte the
  /// same semantics as the heap Graph's binary-searched Range, so width
  /// estimates agree across backends.
  std::pair<size_t, size_t> Range(int perm, PermKey probe) const;

  /// Width of the range a scan would narrow to; exact.
  size_t EstimateInPerm(int perm, TermId s, TermId p, TermId o) const {
    return RangeWidth(perm, Permute(perm, s, p, o));
  }

  /// Decodes permutation block `block` into `out` (capacity >= kPermBlock);
  /// returns the number of keys decoded.
  size_t DecodeKeyBlock(int perm, size_t block, PermKey* out) const;

  /// Enumerates matches in the permutation's sort order, decoding only the
  /// blocks overlapping the narrowed range — the mapped twin of the heap
  /// Graph's ScanIndex, including the inline filter on non-prefix lanes.
  template <typename Fn>
  void ForEachInPerm(int perm, TermId s, TermId p, TermId o, Fn&& fn) const {
    const PermKey probe = Permute(perm, s, p, o);
    const auto [lo, hi] = Range(perm, probe);
    if (lo >= hi) return;
    PermKey block[kPermBlock];
    const size_t b0 = lo / kPermBlock;
    const size_t b1 = (hi - 1) / kPermBlock;
    for (size_t b = b0; b <= b1; ++b) {
      const size_t count = DecodeKeyBlock(perm, b, block);
      const size_t base = b * kPermBlock;
      const size_t begin = b == b0 ? lo - base : 0;
      const size_t end = std::min(count, hi - base);
      for (size_t i = begin; i < end; ++i) {
        const PermKey& k = block[i];
        if ((probe.b == kNoTermId || k.b == probe.b) &&
            (probe.c == kNoTermId || k.c == probe.c)) {
          fn(Unpermute(perm, k));
        }
      }
    }
  }

  /// Lazy-decode observability counters: relaxed, monotonically rising for
  /// the view's lifetime. The executor snapshots them before/after a query
  /// to attribute decode work ("mmap-decode" span + rdfa_mmap_* counters);
  /// relaxed increments on the const scan path keep results byte-identical
  /// whether or not anyone reads them.
  struct DecodeCounters {
    uint64_t key_blocks_decoded = 0;
    uint64_t term_blocks_decoded = 0;
    uint64_t dict_lookups = 0;
  };
  DecodeCounters decode_counters() const {
    return DecodeCounters{
        key_blocks_decoded_.load(std::memory_order_relaxed),
        term_blocks_decoded_.load(std::memory_order_relaxed),
        dict_lookups_.load(std::memory_order_relaxed)};
  }

  /// Permutes a pattern into `perm`'s lane order (wildcards preserved).
  static PermKey Permute(int perm, TermId s, TermId p, TermId o) {
    switch (perm) {
      case 1: return {p, o, s};
      case 2: return {o, s, p};
      default: return {s, p, o};
    }
  }

  static TripleId Unpermute(int perm, const PermKey& k) {
    switch (perm) {
      case 1: return {k.c, k.a, k.b};
      case 2: return {k.b, k.c, k.a};
      default: return {k.a, k.b, k.c};
    }
  }

 private:
  struct PermSection {
    uint64_t key_count = 0;
    uint64_t n_blocks = 0;
    const char* index = nullptr;  ///< n_blocks entries of 20 bytes
    const char* blob = nullptr;
    size_t blob_len = 0;
  };

  MappedGraphView() = default;
  Status Init(std::string_view data);
  Status InitTerms(std::string_view sec);
  Status InitPerm(int perm, std::string_view sec);
  Status InitStats(std::string_view sec);
  Status InitGenerations(std::string_view sec);

  PermKey IndexKey(const PermSection& ps, size_t block) const;
  uint64_t IndexOffset(const PermSection& ps, size_t block) const;
  size_t LowerBound(int perm, const PermKey& probe) const;
  size_t UpperBound(int perm, const PermKey& probe) const;
  size_t RangeWidth(int perm, PermKey probe) const {
    const auto [lo, hi] = Range(perm, probe);
    return hi - lo;
  }
  /// Decodes dictionary block `block` (kTermBlock terms) into `out`;
  /// returns the number decoded.
  size_t DecodeTermBlock(size_t block, Term* out) const;

  std::shared_ptr<const fs::MmapFile> backing_;
  std::string_view data_;

  // TERMS section.
  uint64_t n_terms_ = 0;
  std::vector<std::string> datatypes_;
  std::vector<std::string> langs_;
  uint64_t n_term_blocks_ = 0;
  const char* term_offsets_ = nullptr;  ///< n_term_blocks_ u64 offsets
  const char* term_blob_ = nullptr;
  size_t term_blob_len_ = 0;

  PermSection perms_[3];
  GraphStats stats_;
  uint64_t generation_ = 0;
  std::vector<std::pair<TermId, uint64_t>> pred_gens_;

  // Decode counters (mutable: the view is logically immutable and shared
  // const; counting decodes does not change observable scan results).
  mutable std::atomic<uint64_t> key_blocks_decoded_{0};
  mutable std::atomic<uint64_t> term_blocks_decoded_{0};
  mutable std::atomic<uint64_t> dict_lookups_{0};
};

}  // namespace rdfa::rdf

#endif  // RDFA_RDF_MAPPED_GRAPH_H_
