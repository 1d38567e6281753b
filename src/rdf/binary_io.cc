#include "rdf/binary_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <vector>

#include "common/vbyte.h"
#include "rdf/mapped_graph.h"

namespace rdfa::rdf {

namespace {

// v1 payload: terms + triples. v2 appends the GraphStats block so loading a
// snapshot restores statistics instead of silently recomputing them. v3 is
// the compressed section-table layout documented in binary_io.h. All three
// magics load; saves write v3 unless asked otherwise.
constexpr char kMagicV1[] = "RDFA1\n";
constexpr char kMagicV2[] = "RDFA2\n";
constexpr char kMagicV3[] = "RDFA3\n";
constexpr size_t kMagicLen = 6;

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU8(uint8_t* v) {
    if (pos_ >= data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadString(std::string* s) {
    uint64_t len = 0;
    if (!ReadU64(&len) || pos_ + len > data_.size()) return false;
    s->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Stats block shared verbatim by v2 (trailing) and v3 (STATS section).
// Predicate entries are written in ascending id order so snapshots of the
// same graph are byte-identical.
void AppendStatsBlock(std::string* out, const GraphStats& stats) {
  PutU64(out, stats.triples);
  PutU64(out, stats.distinct_subjects);
  PutU64(out, stats.distinct_predicates);
  PutU64(out, stats.distinct_objects);
  std::vector<TermId> preds;
  preds.reserve(stats.by_predicate.size());
  for (const auto& [p, unused] : stats.by_predicate) preds.push_back(p);
  std::sort(preds.begin(), preds.end());
  PutU64(out, preds.size());
  for (TermId p : preds) {
    const PredicateStats& ps = stats.by_predicate.at(p);
    PutU32(out, p);
    PutU64(out, ps.triples);
    PutU64(out, ps.distinct_subjects);
    PutU64(out, ps.distinct_objects);
  }
}

std::string SaveBinaryV2(const Graph& graph) {
  std::string out(kMagicV2, kMagicLen);
  const TermTable& terms = graph.terms();
  PutU64(&out, terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    const Term& t = terms.Get(static_cast<TermId>(i));
    out.push_back(static_cast<char>(t.kind()));
    PutString(&out, t.lexical());
    PutString(&out, t.datatype());
    PutString(&out, t.lang());
  }
  PutU64(&out, graph.triples().size());
  for (const TripleId& t : graph.triples()) {
    PutU32(&out, t.s);
    PutU32(&out, t.p);
    PutU32(&out, t.o);
  }
  AppendStatsBlock(&out, graph.Stats());
  return out;
}

// RDFA3 TERMS section: front-coded lexicals (restart every kTermBlock),
// datatype/language strings interned into per-file dictionaries.
std::string BuildTermsSection(const TermTable& terms) {
  constexpr size_t kBlock = MappedGraphView::kTermBlock;
  const size_t n = terms.size();
  std::vector<std::string> datatypes, langs;
  std::unordered_map<std::string, uint64_t> dt_idx, lang_idx;
  const auto dict_index = [](const std::string& s,
                             std::vector<std::string>* dict,
                             std::unordered_map<std::string, uint64_t>* idx) {
    if (s.empty()) return uint64_t{0};
    auto [it, inserted] = idx->emplace(s, dict->size() + 1);
    if (inserted) dict->push_back(s);
    return it->second;
  };
  std::string blob;
  std::vector<uint64_t> offsets;
  offsets.reserve((n + kBlock - 1) / kBlock);
  std::string prev;
  for (size_t i = 0; i < n; ++i) {
    const Term& t = terms.Get(static_cast<TermId>(i));
    if (i % kBlock == 0) {
      offsets.push_back(blob.size());
      prev.clear();
    }
    blob.push_back(static_cast<char>(t.kind()));
    const std::string& lex = t.lexical();
    size_t shared = 0;
    const size_t max_shared = std::min(prev.size(), lex.size());
    while (shared < max_shared && prev[shared] == lex[shared]) ++shared;
    AppendVbyte(&blob, shared);
    AppendVbyte(&blob, lex.size() - shared);
    blob.append(lex, shared, std::string::npos);
    AppendVbyte(&blob, dict_index(t.datatype(), &datatypes, &dt_idx));
    AppendVbyte(&blob, dict_index(t.lang(), &langs, &lang_idx));
    prev = lex;
  }
  std::string out;
  PutU64(&out, n);
  PutU32(&out, static_cast<uint32_t>(kBlock));
  PutU64(&out, datatypes.size());
  for (const std::string& s : datatypes) {
    AppendVbyte(&out, s.size());
    out.append(s);
  }
  PutU64(&out, langs.size());
  for (const std::string& s : langs) {
    AppendVbyte(&out, s.size());
    out.append(s);
  }
  PutU64(&out, offsets.size());
  for (uint64_t off : offsets) PutU64(&out, off);
  out.append(blob);
  return out;
}

// RDFA3 permutation section: per-block first keys in a binary-searchable
// index, remaining keys difference-coded (see binary_io.h for the scheme).
std::string BuildPermSection(const Graph& graph, Graph::Perm perm) {
  constexpr size_t kBlock = MappedGraphView::kPermBlock;
  std::string index, blob;
  uint64_t count = 0;
  uint32_t pa = 0, pb = 0, pc = 0;
  graph.ForEachInPerm(
      perm, kNoTermId, kNoTermId, kNoTermId, [&](const TripleId& t) {
        uint32_t a, b, c;
        switch (perm) {
          case Graph::kPermPOS: a = t.p, b = t.o, c = t.s; break;
          case Graph::kPermOSP: a = t.o, b = t.s, c = t.p; break;
          default: a = t.s, b = t.p, c = t.o; break;
        }
        if (count % kBlock == 0) {
          PutU32(&index, a);
          PutU32(&index, b);
          PutU32(&index, c);
          PutU64(&index, blob.size());
        } else {
          const uint32_t da = a - pa;
          AppendVbyte(&blob, da);
          if (da != 0) {
            AppendVbyte(&blob, b);
            AppendVbyte(&blob, c);
          } else {
            const uint32_t db = b - pb;
            AppendVbyte(&blob, db);
            if (db != 0) {
              AppendVbyte(&blob, c);
            } else {
              AppendVbyte(&blob, c - pc);
            }
          }
        }
        pa = a, pb = b, pc = c;
        ++count;
      });
  std::string out;
  PutU64(&out, count);
  PutU32(&out, static_cast<uint32_t>(kBlock));
  PutU64(&out, (count + kBlock - 1) / kBlock);
  out.append(index);
  out.append(blob);
  return out;
}

std::string BuildGenerationsSection(const Graph& graph) {
  std::string out;
  PutU64(&out, graph.Generation());
  auto gens = graph.PredicateGenerations();
  std::sort(gens.begin(), gens.end());
  PutU64(&out, gens.size());
  for (const auto& [pred, gen] : gens) {
    PutU32(&out, pred);
    PutU64(&out, gen);
  }
  return out;
}

std::string SaveBinaryV3(const Graph& graph) {
  graph.Freeze();
  std::string sections[6];
  sections[0] = BuildTermsSection(graph.terms());
  sections[1] = BuildPermSection(graph, Graph::kPermSPO);
  sections[2] = BuildPermSection(graph, Graph::kPermPOS);
  sections[3] = BuildPermSection(graph, Graph::kPermOSP);
  AppendStatsBlock(&sections[4], graph.Stats());
  sections[5] = BuildGenerationsSection(graph);
  std::string out(kMagicV3, kMagicLen);
  PutU32(&out, 6);
  uint64_t offset = kMagicLen + 4 + 6 * 20;  // past the section table
  for (uint32_t i = 0; i < 6; ++i) {
    PutU32(&out, i + 1);  // section kinds are 1-based, in layout order
    PutU64(&out, offset);
    PutU64(&out, sections[i].size());
    offset += sections[i].size();
  }
  for (const std::string& sec : sections) out.append(sec);
  return out;
}

// Fully decodes an RDFA3 snapshot onto the heap through a transient
// (non-owning) view. Triples insert in SPO order — the canonical v3
// enumeration order — so a heap-loaded and a mapped graph agree
// byte-for-byte on every scan.
Status LoadV3Heap(std::string_view data, Graph* graph) {
  RDFA_ASSIGN_OR_RETURN(auto view, MappedGraphView::Parse(data, nullptr));
  const size_t n_terms = view->term_count();
  Term buf[MappedGraphView::kTermBlock];
  for (size_t base = 0; base < n_terms;
       base += MappedGraphView::kTermBlock) {
    const size_t end =
        std::min(base + MappedGraphView::kTermBlock, n_terms);
    view->DecodeRange(static_cast<TermId>(base), static_cast<TermId>(end),
                      buf);
    for (size_t i = base; i < end; ++i) {
      TermId id = graph->terms().Intern(buf[i - base]);
      if (id != i) {
        return Status::ParseError("duplicate term in snapshot (id drift)");
      }
    }
  }
  Status st = Status::OK();
  view->ForEachInPerm(Graph::kPermSPO, kNoTermId, kNoTermId, kNoTermId,
                      [&](const TripleId& t) {
                        if (!st.ok()) return;
                        if (t.s >= n_terms || t.p >= n_terms ||
                            t.o >= n_terms) {
                          st = Status::ParseError(
                              "triple references unknown term");
                          return;
                        }
                        graph->AddIds(t);
                      });
  RDFA_RETURN_NOT_OK(st);
  if (graph->size() != view->triple_count()) {
    return Status::ParseError("duplicate triple in snapshot");
  }
  graph->RestoreStats(view->stats());
  graph->RestoreGenerations(view->generation(),
                            view->predicate_generations());
  return Status::OK();
}

}  // namespace

std::string SaveBinary(const Graph& graph, int version) {
  return version <= kSnapshotVersionV2 ? SaveBinaryV2(graph)
                                       : SaveBinaryV3(graph);
}

Status LoadBinary(std::string_view data, Graph* graph) {
  if (graph->size() != 0 || graph->terms().size() != 0) {
    return Status::InvalidArgument("LoadBinary requires an empty graph");
  }
  int version = 0;
  if (data.size() >= kMagicLen) {
    if (std::memcmp(data.data(), kMagicV1, kMagicLen) == 0) version = 1;
    if (std::memcmp(data.data(), kMagicV2, kMagicLen) == 0) version = 2;
    if (std::memcmp(data.data(), kMagicV3, kMagicLen) == 0) version = 3;
  }
  if (version == 0) {
    return Status::ParseError("bad magic: not an rdfa binary snapshot");
  }
  if (version == 3) return LoadV3Heap(data, graph);
  Reader r(data.substr(kMagicLen));
  uint64_t n_terms = 0;
  if (!r.ReadU64(&n_terms)) return Status::ParseError("truncated term count");
  for (uint64_t i = 0; i < n_terms; ++i) {
    uint8_t kind = 0;
    std::string lexical, datatype, lang;
    if (!r.ReadU8(&kind) || !r.ReadString(&lexical) ||
        !r.ReadString(&datatype) || !r.ReadString(&lang)) {
      return Status::ParseError("truncated term " + std::to_string(i));
    }
    Term term;
    switch (static_cast<TermKind>(kind)) {
      case TermKind::kIri:
        term = Term::Iri(std::move(lexical));
        break;
      case TermKind::kBlankNode:
        term = Term::Blank(std::move(lexical));
        break;
      case TermKind::kLiteral:
        if (!lang.empty()) {
          term = Term::LangLiteral(std::move(lexical), std::move(lang));
        } else if (!datatype.empty()) {
          term = Term::TypedLiteral(std::move(lexical), std::move(datatype));
        } else {
          term = Term::Literal(std::move(lexical));
        }
        break;
      default:
        return Status::ParseError("bad term kind");
    }
    TermId id = graph->terms().Intern(term);
    if (id != i) {
      return Status::ParseError("duplicate term in snapshot (id drift)");
    }
  }
  uint64_t n_triples = 0;
  if (!r.ReadU64(&n_triples)) {
    return Status::ParseError("truncated triple count");
  }
  for (uint64_t i = 0; i < n_triples; ++i) {
    TripleId t;
    if (!r.ReadU32(&t.s) || !r.ReadU32(&t.p) || !r.ReadU32(&t.o)) {
      return Status::ParseError("truncated triple " + std::to_string(i));
    }
    if (t.s >= n_terms || t.p >= n_terms || t.o >= n_terms) {
      return Status::ParseError("triple references unknown term");
    }
    graph->AddIds(t);
  }
  // v1 snapshots carry no stats: the first EnsureIndexes recomputes them.
  if (version < 2) return Status::OK();
  GraphStats stats;
  uint64_t n_preds = 0;
  if (!r.ReadU64(&stats.triples) || !r.ReadU64(&stats.distinct_subjects) ||
      !r.ReadU64(&stats.distinct_predicates) ||
      !r.ReadU64(&stats.distinct_objects) || !r.ReadU64(&n_preds)) {
    return Status::ParseError("truncated stats block");
  }
  for (uint64_t i = 0; i < n_preds; ++i) {
    uint32_t pred = 0;
    PredicateStats ps;
    if (!r.ReadU32(&pred) || !r.ReadU64(&ps.triples) ||
        !r.ReadU64(&ps.distinct_subjects) || !r.ReadU64(&ps.distinct_objects)) {
      return Status::ParseError("truncated predicate stats " +
                                std::to_string(i));
    }
    if (pred >= n_terms) {
      return Status::ParseError("predicate stats reference unknown term");
    }
    stats.by_predicate[pred] = ps;
  }
  graph->RestoreStats(std::move(stats));
  return Status::OK();
}

Status SaveBinaryFile(const Graph& graph, const std::string& path,
                      int version) {
  // Never rewrite the target in place: a reader may have it mapped. The
  // snapshot goes to a fresh file beside it, is made durable, and is renamed
  // over the target, so the path always names a whole snapshot and a
  // mapping of the old file keeps reading the old inode.
  const std::string data = SaveBinary(graph, version);
  std::string tmp = path + ".XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0) {
    return Status::InvalidArgument("cannot create a file beside " + path);
  }
  auto fail = [&](const std::string& what) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal(what + " failed for " + path + ": " + reason);
  };
  for (size_t done = 0; done < data.size();) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return fail("write");
    done += static_cast<size_t>(n);
  }
  if (::fchmod(fd, 0644) != 0) return fail("chmod");
  if (::fsync(fd) != 0) return fail("fsync");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("close failed for " + path);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed for " + path + ": " + reason);
  }
  // Make the rename itself durable.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Status LoadBinaryFile(const std::string& path, Graph* graph) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::InvalidArgument("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  return LoadBinary(data, graph);
}

Result<std::unique_ptr<Graph>> OpenMappedSnapshot(const std::string& path) {
  RDFA_ASSIGN_OR_RETURN(auto view, MappedGraphView::Open(path));
  auto graph = std::make_unique<Graph>();
  graph->AttachMapped(std::move(view));
  return graph;
}

}  // namespace rdfa::rdf
