#ifndef RDFA_RDF_TERM_TABLE_H_
#define RDFA_RDF_TERM_TABLE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "rdf/decoded_value.h"
#include "rdf/term.h"

namespace rdfa::rdf {

/// A read-only source of already-interned terms that a TermTable can sit on
/// top of without eagerly decoding them — the RDFA3 mapped snapshot's term
/// dictionary implements this. Ids are dense [0, term_count()); DecodeTerm
/// must be thread-safe and deterministic (same id, same term).
class TermDictSource {
 public:
  virtual ~TermDictSource() = default;
  virtual size_t term_count() const = 0;
  virtual Term DecodeTerm(TermId id) const = 0;
  /// Bulk decode of [begin, end) into `out`; sources with block-structured
  /// storage override this to avoid per-id redundant work.
  virtual void DecodeRange(TermId begin, TermId end, Term* out) const {
    for (TermId id = begin; id < end; ++id) out[id - begin] = DecodeTerm(id);
  }
};

/// Interns terms to dense 32-bit ids. All engine data structures (graph
/// indexes, bindings, extensions) operate on TermIds; the table is the only
/// place term strings live. Beside each term it keeps the term's
/// DecodedValue, so readers of numbers, booleans and dates never parse.
///
/// Thread-safety: fully concurrent. `Get` is lock-free — terms live in
/// pointer-stable chunks of geometrically growing size whose slots are
/// written before the id is published, so any id legitimately held by a
/// reader is always dereferenceable without taking a lock. `Find` takes a
/// shared lock on the intern index; `Intern`/`MintBlank` take it exclusively
/// only when actually inserting. This matters because queries intern
/// *computed* literals (BIND, VALUES) while other readers run, and because
/// every MVCC version of a graph shares one append-only table: a commit
/// interns its new terms while readers of older versions (and cached result
/// tables, which hold ids into it) keep reading.
class TermTable {
 public:
  TermTable() = default;
  TermTable(const TermTable&) = delete;
  TermTable& operator=(const TermTable&) = delete;
  // Moving requires exclusive access to both tables, like any mutation of
  // the owning Graph.
  TermTable(TermTable&& other) noexcept { *this = std::move(other); }
  TermTable& operator=(TermTable&& other) noexcept;
  ~TermTable();

  /// Interns `term`, returning its id (existing id if already present).
  TermId Intern(const Term& term);

  /// Looks up an already-interned term; kNoTermId if absent.
  TermId Find(const Term& term) const;

  /// The term for `id`. Precondition: id < size(). Lock-free once the
  /// containing chunk exists; with an attached dictionary, the first touch
  /// of a chunk decodes just that chunk (not the whole dictionary).
  const Term& Get(TermId id) const {
    const size_t c = ChunkOf(id);
    const Term* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      MaterializeChunk(c);
      chunk = chunks_[c].load(std::memory_order_acquire);
    }
    return chunk[id - ChunkBase(c)];
  }

  /// DecodeValue(Get(id)), decoded when the term was interned (or its
  /// dictionary chunk first touched). Same precondition and lock-freedom
  /// as Get.
  const DecodedValue& Decoded(TermId id) const {
    const size_t c = ChunkOf(id);
    const DecodedValue* chunk = decoded_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      MaterializeChunk(c);
      chunk = decoded_[c].load(std::memory_order_acquire);
    }
    return chunk[id - ChunkBase(c)];
  }

  /// Backs this (empty) table with a lazily-decoded dictionary: size()
  /// immediately reports the dictionary's term count and Get() decodes
  /// chunks on first touch, but nothing is decoded up front. The intern
  /// index (Find/Intern/MintBlank) hydrates in full on its first use —
  /// interning fundamentally needs every term hashed. New terms interned
  /// past the dictionary append as usual.
  void AttachDict(std::shared_ptr<const TermDictSource> dict);

  /// Convenience: intern an IRI / plain literal directly.
  TermId InternIri(std::string_view iri);
  TermId FindIri(std::string_view iri) const;

  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Mints a blank node with a fresh label ("_:b<N>") guaranteed unique
  /// within this table.
  TermId MintBlank();

 private:
  // Chunk c holds 64 << c terms; chunk bases are 64 * (2^c - 1). 28 chunks
  // cover the whole 32-bit id space. Slots are default-constructed Terms
  // assigned under the intern lock before the id is published. Decoded
  // chunk c is the same range of DecodedValues, allocated uninitialized
  // (only written slots are ever touched) and published before term chunk
  // c, so a reader that sees a term chunk sees its decoded chunk.
  static constexpr size_t kFirstChunkBits = 6;
  static constexpr size_t kNumChunks = 28;

  static size_t ChunkOf(TermId id) {
    const uint64_t z = (static_cast<uint64_t>(id) >> kFirstChunkBits) + 1;
    return static_cast<size_t>(std::bit_width(z)) - 1;  // floor(log2(z))
  }
  static size_t ChunkBase(size_t c) {
    return ((size_t{64} << c) - 64);
  }
  static size_t ChunkSize(size_t c) { return size_t{64} << c; }

  // Appends `term` at id size_. Caller holds mu_ exclusively.
  TermId AppendLocked(const Term& term);
  void DestroyChunks();

  // Allocates and publishes chunk `c` and its decoded chunk, first
  // decoding every term of it covered by dict_ (no-op if already present).
  // MaterializeChunk takes mu_ exclusively; MaterializeChunkLocked is for a
  // caller already holding it, and returns the term chunk.
  void MaterializeChunk(size_t c) const;
  Term* MaterializeChunkLocked(size_t c) const;
  // Materializes every dict chunk and builds index_ over the dictionary.
  // Must run before any append so partially-filled chunks never exist.
  void HydrateIndex() const;

  struct TermHash {
    size_t operator()(const Term& t) const { return t.Hash(); }
  };

  mutable std::shared_mutex mu_;  ///< guards index_, blank_counter_, growth
  mutable std::array<std::atomic<Term*>, kNumChunks> chunks_ = {};
  mutable std::array<std::atomic<DecodedValue*>, kNumChunks> decoded_ = {};
  std::atomic<size_t> size_{0};
  // Mutable because lazy hydration off dict_ is logically const: it changes
  // the representation, never the observable contents.
  mutable std::unordered_map<Term, TermId, TermHash> index_;
  uint64_t blank_counter_ = 0;
  std::shared_ptr<const TermDictSource> dict_;
  mutable std::atomic<bool> index_hydrated_{true};  ///< false once AttachDict
};

}  // namespace rdfa::rdf

#endif  // RDFA_RDF_TERM_TABLE_H_
