#include "rdf/term_table.h"

#include <algorithm>
#include <mutex>

namespace rdfa::rdf {

TermTable& TermTable::operator=(TermTable&& other) noexcept {
  if (this != &other) {
    DestroyChunks();
    for (size_t c = 0; c < kNumChunks; ++c) {
      chunks_[c].store(other.chunks_[c].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      other.chunks_[c].store(nullptr, std::memory_order_relaxed);
    }
    size_.store(other.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    other.size_.store(0, std::memory_order_relaxed);
    index_ = std::move(other.index_);
    other.index_.clear();
    blank_counter_ = other.blank_counter_;
    dict_ = std::move(other.dict_);
    other.dict_.reset();
    index_hydrated_.store(
        other.index_hydrated_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other.index_hydrated_.store(true, std::memory_order_relaxed);
  }
  return *this;
}

TermTable::~TermTable() { DestroyChunks(); }

void TermTable::DestroyChunks() {
  for (auto& slot : chunks_) {
    delete[] slot.load(std::memory_order_relaxed);
    slot.store(nullptr, std::memory_order_relaxed);
  }
}

void TermTable::AttachDict(std::shared_ptr<const TermDictSource> dict) {
  // Precondition (same as LoadBinary): the table is empty. The dictionary
  // becomes the authoritative source for ids [0, dict->term_count()).
  dict_ = std::move(dict);
  index_hydrated_.store(false, std::memory_order_release);
  size_.store(dict_->term_count(), std::memory_order_release);
}

Term* TermTable::MaterializeChunkLocked(size_t c) const {
  Term* chunk = chunks_[c].load(std::memory_order_relaxed);
  if (chunk != nullptr) return chunk;
  chunk = new Term[ChunkSize(c)];
  if (dict_ != nullptr) {
    const size_t base = ChunkBase(c);
    const size_t end = std::min(base + ChunkSize(c), dict_->term_count());
    if (base < end) {
      dict_->DecodeRange(static_cast<TermId>(base), static_cast<TermId>(end),
                         chunk);
    }
  }
  // Release so lock-free Get readers that see the pointer also see the
  // decoded slots.
  chunks_[c].store(chunk, std::memory_order_release);
  return chunk;
}

const Term* TermTable::MaterializeChunk(size_t c) const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return MaterializeChunkLocked(c);
}

void TermTable::HydrateIndex() const {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (index_hydrated_.load(std::memory_order_relaxed)) return;
  const size_t n = dict_->term_count();
  for (size_t id = 0; id < n; ++id) {
    const size_t c = ChunkOf(static_cast<TermId>(id));
    const Term* chunk = MaterializeChunkLocked(c);
    index_.emplace(chunk[id - ChunkBase(c)], static_cast<TermId>(id));
  }
  index_hydrated_.store(true, std::memory_order_release);
}

TermId TermTable::AppendLocked(const Term& term) {
  const size_t id = size_.load(std::memory_order_relaxed);
  const size_t c = ChunkOf(static_cast<TermId>(id));
  Term* chunk = chunks_[c].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    // With a dictionary attached the index hydration pass has already
    // materialized every dict-covered chunk, so a fresh chunk here only
    // ever holds appended terms.
    chunk = new Term[ChunkSize(c)];
    // Release so a lock-free Get that learned the id through any
    // synchronizing channel also sees the chunk pointer.
    chunks_[c].store(chunk, std::memory_order_release);
  }
  chunk[id - ChunkBase(c)] = term;
  index_.emplace(term, static_cast<TermId>(id));
  // The slot is fully written before the id becomes visible via size().
  size_.store(id + 1, std::memory_order_release);
  return static_cast<TermId>(id);
}

TermId TermTable::Intern(const Term& term) {
  if (!index_hydrated_.load(std::memory_order_acquire)) HydrateIndex();
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(term);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(term);  // re-check: another thread may have won
  if (it != index_.end()) return it->second;
  return AppendLocked(term);
}

TermId TermTable::Find(const Term& term) const {
  if (!index_hydrated_.load(std::memory_order_acquire)) HydrateIndex();
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(term);
  return it == index_.end() ? kNoTermId : it->second;
}

TermId TermTable::InternIri(std::string_view iri) {
  return Intern(Term::Iri(std::string(iri)));
}

TermId TermTable::FindIri(std::string_view iri) const {
  return Find(Term::Iri(std::string(iri)));
}

TermId TermTable::MintBlank() {
  if (!index_hydrated_.load(std::memory_order_acquire)) HydrateIndex();
  std::unique_lock<std::shared_mutex> lock(mu_);
  while (true) {
    std::string label = "b" + std::to_string(blank_counter_++);
    Term t = Term::Blank(label);
    if (index_.find(t) == index_.end()) return AppendLocked(t);
  }
}

}  // namespace rdfa::rdf
