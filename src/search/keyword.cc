#include "search/keyword.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/string_util.h"

namespace rdfa::search {

using rdf::kNoTermId;
using rdf::TermId;

std::vector<std::string> TokenizeText(std::string_view text) {
  std::vector<std::string> out;
  std::string cur;
  auto flush = [&]() {
    if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  };
  char prev = '\0';
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      // Split camelCase boundaries: "releaseDate" -> "release", "date".
      if (std::isupper(static_cast<unsigned char>(c)) &&
          std::islower(static_cast<unsigned char>(prev))) {
        flush();
      }
      cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      flush();
    }
    prev = c;
  }
  flush();
  return out;
}

namespace {

std::string LocalName(const std::string& iri) {
  size_t pos = iri.find_last_of("#/");
  return pos == std::string::npos ? iri : iri.substr(pos + 1);
}

}  // namespace

KeywordIndex::KeywordIndex(const rdf::Graph& graph) {
  std::set<TermId> subjects;
  for (const rdf::TripleId& t : graph.triples()) {
    subjects.insert(t.s);
    const rdf::Term& obj = graph.terms().Get(t.o);
    std::vector<std::string> tokens;
    if (obj.is_literal()) {
      tokens = TokenizeText(obj.lexical());
    } else if (obj.is_iri()) {
      tokens = TokenizeText(LocalName(obj.lexical()));
    }
    for (std::string& tok : tokens) {
      index_[std::move(tok)].insert(t.s);
    }
    // The subject's own local name also identifies it.
    const rdf::Term& subj = graph.terms().Get(t.s);
    if (subj.is_iri()) {
      for (std::string& tok : TokenizeText(LocalName(subj.lexical()))) {
        index_[std::move(tok)].insert(t.s);
      }
    }
  }
  num_subjects_ = subjects.size();
}

std::vector<Hit> KeywordIndex::Search(std::string_view query,
                                      size_t limit) const {
  std::map<TermId, double> scores;
  for (const std::string& tok : TokenizeText(query)) {
    auto it = index_.find(tok);
    if (it == index_.end()) continue;
    // Inverse document frequency: rarer tokens weigh more.
    double idf = std::log(
        (static_cast<double>(num_subjects_) + 1.0) /
        (static_cast<double>(it->second.size()) + 1.0));
    for (TermId s : it->second) scores[s] += 1.0 + idf;
  }
  std::vector<Hit> hits;
  hits.reserve(scores.size());
  for (const auto& [s, score] : scores) hits.push_back({s, score});
  std::stable_sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.subject < b.subject;
  });
  if (hits.size() > limit) hits.resize(limit);
  return hits;
}

fs::Extension KeywordIndex::SearchAsExtension(std::string_view query,
                                              size_t limit) const {
  fs::Extension out;
  for (const Hit& h : Search(query, limit)) out.push_back(h.subject);
  return fs::MakeExtension(std::move(out));
}

}  // namespace rdfa::search
