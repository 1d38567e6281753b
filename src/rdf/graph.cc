#include "rdf/graph.h"

#include <mutex>

#include "common/gallop.h"

namespace rdfa::rdf {

void Graph::AttachMapped(std::shared_ptr<const MappedGraphView> view) {
  view_ = std::move(view);
  terms_->AttachDict(view_);
  stats_ = view_->stats();
  generation_.store(view_->generation(), std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(pred_mu_);
    pred_gens_.clear();
    const auto& gens = view_->predicate_generations();
    pred_gens_.insert(gens.begin(), gens.end());
  }
  triples_ready_.store(false, std::memory_order_release);
  // The snapshot *is* the index: nothing to rebuild, stats came with it.
  stats_dirty_.store(false, std::memory_order_release);
  dirty_.store(false, std::memory_order_release);
}

void Graph::MaterializeTriples() const {
  std::lock_guard<std::mutex> lock(materialize_mu_);
  if (triples_ready_.load(std::memory_order_relaxed)) return;
  triples_.reserve(view_->triple_count());
  view_->ForEachInPerm(kPermSPO, kNoTermId, kNoTermId, kNoTermId,
                       [&](const TripleId& t) { triples_.push_back(t); });
  triples_ready_.store(true, std::memory_order_release);
}

void Graph::MaterializeForWrite() {
  if (view_ == nullptr) return;
  if (!triples_ready_.load(std::memory_order_acquire)) MaterializeTriples();
  triple_set_.reserve(triples_.size());
  for (const TripleId& t : triples_) triple_set_.insert(t);
  // From here on this is a plain heap graph; the TermTable keeps its own
  // reference to the dictionary, so lazily decoded terms stay valid.
  view_.reset();
  dirty_.store(true, std::memory_order_release);
}

bool Graph::Add(const Term& s, const Term& p, const Term& o) {
  TripleId t{terms_->Intern(s), terms_->Intern(p), terms_->Intern(o)};
  return AddIds(t);
}

bool Graph::AddIds(TripleId t) {
  MaterializeForWrite();
  if (!triple_set_.insert(t).second) return false;
  triples_.push_back(t);
  const uint64_t gen = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  {
    std::lock_guard<std::mutex> lock(pred_mu_);
    pred_gens_[t.p] = gen;
  }
  stats_dirty_.store(true, std::memory_order_relaxed);
  dirty_.store(true, std::memory_order_release);
  return true;
}

bool Graph::Contains(TermId s, TermId p, TermId o) const {
  if (view_ != nullptr) {
    // Fully bound probe: the SPO range width is the exact membership count.
    return view_->EstimateInPerm(kPermSPO, s, p, o) > 0;
  }
  return triple_set_.count(TripleId{s, p, o}) > 0;
}

size_t Graph::RemoveMatching(TermId s, TermId p, TermId o) {
  MaterializeForWrite();
  size_t before = triples_.size();
  std::vector<TripleId> kept;
  kept.reserve(triples_.size());
  std::unordered_set<TermId> touched_preds;
  for (const TripleId& t : triples_) {
    bool matches = (s == kNoTermId || t.s == s) &&
                   (p == kNoTermId || t.p == p) &&
                   (o == kNoTermId || t.o == o);
    if (matches) {
      triple_set_.erase(t);
      touched_preds.insert(t.p);
    } else {
      kept.push_back(t);
    }
  }
  triples_ = std::move(kept);
  // The generation only moves when the triple set actually changed; a
  // no-match removal keeps every cached artifact valid. Only the predicates
  // of actually-removed triples advance their epochs.
  if (triples_.size() != before) {
    const uint64_t gen =
        generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
    std::lock_guard<std::mutex> lock(pred_mu_);
    for (TermId pred : touched_preds) pred_gens_[pred] = gen;
  }
  stats_dirty_.store(true, std::memory_order_relaxed);
  dirty_.store(true, std::memory_order_release);
  return before - triples_.size();
}

uint64_t Graph::FootprintStamp(const CacheFootprint& fp) const {
  if (fp.wildcard) return Generation();
  uint64_t sum = 0;
  for (const std::string& iri : fp.predicates) {
    const TermId p = terms_->FindIri(iri);
    // An un-interned predicate has epoch 0; if it is later interned by a
    // mutation its epoch jumps to that mutation's generation, so the stamp
    // still moves.
    if (p != kNoTermId) sum += PredicateGeneration(p);
  }
  return sum;
}

std::unique_ptr<Graph> Graph::Clone() const {
  auto copy = std::make_unique<Graph>();
  copy->terms_ = terms_;
  // A clone is always a plain heap graph: an MVCC commit mutates it
  // immediately, so materializing here (not lazily in the copy) keeps the
  // mapped original untouched and shareable.
  copy->triples_ = triples();
  if (view_ != nullptr) {
    copy->triple_set_.reserve(copy->triples_.size());
    for (const TripleId& t : copy->triples_) copy->triple_set_.insert(t);
  } else {
    copy->triple_set_ = triple_set_;
  }
  copy->generation_.store(generation_.load(std::memory_order_acquire),
                          std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(pred_mu_);
    copy->pred_gens_ = pred_gens_;
  }
  // Indexes and stats rebuild lazily on the copy's first Freeze()/read;
  // the source's mutable index state is deliberately not touched here, so
  // cloning is safe under concurrent const readers.
  return copy;
}

std::vector<TripleId> Graph::Match(TermId s, TermId p, TermId o) const {
  std::vector<TripleId> out;
  ForEachMatch(s, p, o, [&](const TripleId& t) { out.push_back(t); });
  return out;
}

size_t Graph::CountMatch(TermId s, TermId p, TermId o) const {
  size_t n = 0;
  ForEachMatch(s, p, o, [&](const TripleId&) { ++n; });
  return n;
}

size_t Graph::EstimateMatch(TermId s, TermId p, TermId o) const {
  if (s == kNoTermId && p == kNoTermId && o == kNoTermId) {
    return size();
  }
  // Longest-bound-prefix selection: every subset of {s, p, o} is a complete
  // prefix of one permutation, so the range width is the exact match count
  // on both backends, and join orders (and thus result byte order) never
  // depend on which backend serves the query.
  return EstimateInPerm(
      ChoosePerm(s != kNoTermId, p != kNoTermId, o != kNoTermId), s, p, o);
}

size_t Graph::EstimateInPerm(Perm perm, TermId s, TermId p, TermId o) const {
  if (view_ != nullptr) {
    return view_->EstimateInPerm(perm, s, p, o);
  }
  auto [lo, hi] = Range(IndexFor(perm), PermuteKey(perm, s, p, o));
  return hi - lo;
}

const std::vector<Graph::Key>& Graph::IndexFor(Perm perm) const {
  EnsureIndexes();
  switch (perm) {
    case kPermPOS: return pos_;
    case kPermOSP: return osp_;
    default: return spo_;
  }
}

std::pair<size_t, size_t> Graph::Range(const std::vector<Key>& index,
                                       const Key& key, size_t from) {
  const Key low = LowKey(key);
  const Key high = HighKey(key);
  auto below_low = [&low](const Key& k) { return k < low; };
  const auto lo = from == 0 ? std::partition_point(index.begin(),
                                                   index.end(), below_low)
                            : GallopPartition(index.begin() + from,
                                              index.end(), below_low);
  const auto hi = GallopPartition(
      lo, index.end(), [&high](const Key& k) { return !(high < k); });
  return {static_cast<size_t>(lo - index.begin()),
          static_cast<size_t>(hi - index.begin())};
}

void Graph::EnsureIndexes() const {
  // Fast path: the acquire load pairs with the release store below, so a
  // reader that sees dirty_ == false also sees the fully built indexes.
  if (!dirty_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  // Another reader may have rebuilt while we waited for the lock.
  if (!dirty_.load(std::memory_order_relaxed)) return;
  ++index_generation_;
  spo_.clear();
  pos_.clear();
  osp_.clear();
  spo_.reserve(triples_.size());
  pos_.reserve(triples_.size());
  osp_.reserve(triples_.size());
  for (const TripleId& t : triples_) {
    spo_.push_back({t.s, t.p, t.o});
    pos_.push_back({t.p, t.o, t.s});
    osp_.push_back({t.o, t.s, t.p});
  }
  std::sort(spo_.begin(), spo_.end());
  std::sort(pos_.begin(), pos_.end());
  std::sort(osp_.begin(), osp_.end());
  // Stats ride the same rebuild pass unless a snapshot restore already
  // supplied them (RestoreStats clears stats_dirty_ without touching
  // dirty_, so a freshly loaded graph builds indexes but keeps its stats).
  if (stats_dirty_.load(std::memory_order_relaxed)) {
    ComputeStatsLocked();
    stats_dirty_.store(false, std::memory_order_relaxed);
  }
  dirty_.store(false, std::memory_order_release);
}

void Graph::ComputeStatsLocked() const {
  stats_ = GraphStats{};
  stats_.triples = triples_.size();
  // Global distincts: each permutation groups by its first lane.
  for (size_t i = 0; i < spo_.size(); ++i) {
    if (i == 0 || spo_[i].a != spo_[i - 1].a) ++stats_.distinct_subjects;
  }
  for (size_t i = 0; i < osp_.size(); ++i) {
    if (i == 0 || osp_[i].a != osp_[i - 1].a) ++stats_.distinct_objects;
  }
  // Per-predicate triple + distinct-object counts from POS (p, o, s): a new
  // `a` starts a predicate group, a new (a, b) pair a distinct object.
  for (size_t i = 0; i < pos_.size(); ++i) {
    PredicateStats& ps = stats_.by_predicate[pos_[i].a];
    ++ps.triples;
    if (i == 0 || pos_[i].a != pos_[i - 1].a || pos_[i].b != pos_[i - 1].b) {
      ++ps.distinct_objects;
    }
  }
  stats_.distinct_predicates = stats_.by_predicate.size();
  // Distinct subjects per predicate from SPO (s, p, o): each distinct
  // (s, p) pair contributes one subject to predicate p.
  for (size_t i = 0; i < spo_.size(); ++i) {
    if (i == 0 || spo_[i].a != spo_[i - 1].a || spo_[i].b != spo_[i - 1].b) {
      ++stats_.by_predicate[spo_[i].b].distinct_subjects;
    }
  }
}

}  // namespace rdfa::rdf
