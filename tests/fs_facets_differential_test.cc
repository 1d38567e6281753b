// Differential coverage for the faceted-search markers. On focus states
// reached by random clicks over product KGs with multi-valued and missing
// attributes, every marker FacetComputer computes is checked against a
// reference computed here the slow, obvious way: member by member, over
// std::set and nested std::map. Each case runs on the heap graph and on the
// same graph mapped from an RDFA3 snapshot.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fs/facets.h"
#include "fs/session.h"
#include "fs/state.h"
#include "rdf/binary_io.h"
#include "rdf/rdfs.h"
#include "sparql/value.h"
#include "test_paths.h"
#include "workload/products.h"

namespace rdfa::fs {
namespace {

using rdf::Graph;
using rdf::kNoTermId;
using rdf::TermId;

const std::string kEx = workload::kExampleNs;

PropRef P(const std::string& local, bool inverse = false) {
  return PropRef{kEx + local, inverse};
}

std::string PathName(const std::vector<PropRef>& path) {
  std::string out;
  for (const PropRef& p : path) {
    out += (out.empty() ? "" : ".") + std::string(p.inverse ? "^" : "") +
           p.iri.substr(p.iri.find('#') + 1);
  }
  return out;
}

// Paths of length 1-3, forward and inverse, over functional, multi-valued
// (founder) and partial (price) properties; {manufacturer, ^manufacturer}
// fans out and back, so members reach overlapping value sets.
const std::vector<std::vector<PropRef>>& Paths() {
  static const auto* paths = new std::vector<std::vector<PropRef>>{
      {P("manufacturer")},
      {P("founder")},
      {P("price")},
      {P("manufacturer", true)},
      {P("manufacturer"), P("origin")},
      {P("hardDrive"), P("manufacturer")},
      {P("manufacturer"), P("manufacturer", true)},
      {P("origin", true), P("manufacturer", true)},
      {P("birthplace", true), P("founder", true)},
      {P("hardDrive"), P("manufacturer"), P("origin")},
      {P("manufacturer"), P("founder"), P("birthplace")},
      {P("manufacturer"), P("origin"), P("GDPPerCapita")},
      {P("origin", true), P("manufacturer", true), P("price")},
      {{"urn:not-a-property", false}},
  };
  return *paths;
}

// ---- references -----------------------------------------------------------

// The values `e` reaches through `path`, hop by hop over std::sets.
std::set<TermId> RefReach(const Graph& g, TermId e,
                          const std::vector<PropRef>& path) {
  std::set<TermId> cur = {e};
  for (const PropRef& p : path) {
    TermId pid = g.terms().FindIri(p.iri);
    std::set<TermId> next;
    if (pid != kNoTermId) {
      for (TermId x : cur) {
        auto edges = p.inverse ? g.Match(kNoTermId, pid, x)
                               : g.Match(x, pid, kNoTermId);
        for (const rdf::TripleId& t : edges) {
          next.insert(p.inverse ? t.s : t.o);
        }
      }
    }
    cur = std::move(next);
  }
  return cur;
}

// Property facets as nested maps, property -> value -> members, listed in
// map order (the order FacetComputer must produce).
std::vector<PropertyFacet> RefPropertyFacets(const Graph& g,
                                             const rdf::Vocab& vocab,
                                             const Extension& ext,
                                             bool include_inverse) {
  std::map<TermId, std::map<TermId, size_t>> forward;
  std::map<TermId, std::map<TermId, size_t>> backward;
  for (TermId e : ext) {
    for (const rdf::TripleId& t : g.Match(e, kNoTermId, kNoTermId)) {
      if (t.p == vocab.type || t.p == vocab.sub_class_of ||
          t.p == vocab.sub_property_of || t.p == vocab.domain ||
          t.p == vocab.range) {
        continue;
      }
      forward[t.p][t.o] += 1;
    }
    if (!include_inverse) continue;
    for (const rdf::TripleId& t : g.Match(kNoTermId, kNoTermId, e)) {
      if (t.p != vocab.type) backward[t.p][t.s] += 1;
    }
  }
  std::vector<PropertyFacet> out;
  for (const auto* index : {&forward, &backward}) {
    for (const auto& [p, values] : *index) {
      PropertyFacet facet;
      facet.prop = PropRef{g.terms().Get(p).lexical(), index == &backward};
      for (const auto& [v, n] : values) facet.values.push_back({v, n});
      out.push_back(std::move(facet));
    }
  }
  return out;
}

std::optional<double> Numeric(const Graph& g, TermId v) {
  return sparql::Value::FromTerm(g.terms().Get(v)).AsNumeric();
}

// ---- checks ---------------------------------------------------------------

void ExpectSortedUnique(const Extension& ext, const std::string& what) {
  for (size_t i = 1; i < ext.size(); ++i) {
    ASSERT_LT(ext[i - 1], ext[i]) << what << " is not sorted and unique";
  }
}

void ExpectSameFacet(const PropertyFacet& got, const PropertyFacet& want,
                     const std::string& what) {
  EXPECT_EQ(got.prop, want.prop) << what;
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  for (size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(got.values[i].value, want.values[i].value) << what << " #" << i;
    EXPECT_EQ(got.values[i].count, want.values[i].count) << what << " #" << i;
  }
}

void CheckPathFacets(const Graph& g, const FacetComputer& fc,
                     const Extension& ext) {
  for (const std::vector<PropRef>& path : Paths()) {
    const std::string what = PathName(path);
    PropertyFacet facet = fc.PathFacet(ext, path);
    EXPECT_EQ(facet.prop, path.back()) << what;

    // Values: the Joins chain M_k, ascending.
    Extension chain = ext;
    for (const PropRef& p : path) chain = Joins(g, chain, p);
    std::vector<TermId> values;
    for (const ValueCount& vc : facet.values) values.push_back(vc.value);
    EXPECT_EQ(values, chain) << what;

    // Counts: |RestrictByPath(ext, path, v)|, and the per-member reference.
    std::map<TermId, size_t> ref;
    for (TermId e : ext) {
      for (TermId v : RefReach(g, e, path)) ++ref[v];
    }
    ASSERT_EQ(facet.values.size(), ref.size()) << what;
    for (const ValueCount& vc : facet.values) {
      Extension back = fc.RestrictByPath(ext, path, vc.value);
      ExpectSortedUnique(back, what + " RestrictByPath");
      EXPECT_EQ(vc.count, back.size()) << what;
      EXPECT_EQ(vc.count, ref[vc.value]) << what;
    }
  }
}

void CheckRanges(const Graph& g, const FacetComputer& fc,
                 const Extension& ext, std::mt19937_64& rng) {
  struct Range {
    std::vector<PropRef> path;
    std::optional<double> min, max;
  };
  std::uniform_int_distribution<int> price(300, 3000);
  int lo = price(rng);
  const std::vector<Range> ranges = {
      {{P("price")}, lo, lo + 900},
      {{P("price")}, std::nullopt, lo},
      {{P("USBPorts")}, 3, std::nullopt},
      {{P("manufacturer"), P("origin"), P("GDPPerCapita")}, 20000, 60000},
      {{P("origin", true), P("manufacturer", true), P("price")}, lo,
       std::nullopt},
      {{P("manufacturer")}, 0, 1e9},  // IRIs only: never in range
  };
  for (const Range& r : ranges) {
    const std::string what = "range " + PathName(r.path);
    Extension got = fc.RestrictByRange(ext, r.path, r.min, r.max);
    ExpectSortedUnique(got, what);
    Extension want;
    for (TermId e : ext) {
      for (TermId v : RefReach(g, e, r.path)) {
        auto n = Numeric(g, v);
        if (n.has_value() && (!r.min.has_value() || *n >= *r.min) &&
            (!r.max.has_value() || *n <= *r.max)) {
          want.push_back(e);
          break;
        }
      }
    }
    EXPECT_EQ(got, want) << what;
  }
}

void CheckClassFacets(const Graph& g, const rdf::Vocab& vocab,
                      const rdf::SchemaView& schema, const FacetComputer& fc,
                      const Extension& ext) {
  std::map<TermId, size_t> ref;  // classes with members in ext
  for (TermId cls : schema.classes()) {
    size_t n = 0;
    for (TermId e : ext) n += g.Contains(e, vocab.type, cls) ? 1 : 0;
    if (n > 0) ref[cls] = n;
  }
  std::set<TermId> shown;
  std::vector<const ClassFacet*> todo;
  std::vector<ClassFacet> facets = fc.ClassFacets(ext);
  for (const ClassFacet& f : facets) todo.push_back(&f);
  while (!todo.empty()) {
    const ClassFacet* f = todo.back();
    todo.pop_back();
    shown.insert(f->cls);
    EXPECT_EQ(f->count, ref[f->cls]) << g.terms().Get(f->cls).lexical();
    for (const ClassFacet& c : f->children) todo.push_back(&c);
  }
  std::set<TermId> want;
  for (const auto& [cls, n] : ref) want.insert(cls);
  EXPECT_EQ(shown, want);
}

// ---- the fixture ----------------------------------------------------------

// Round-trips `g` through an RDFA3 snapshot and opens it as a mapped graph.
std::unique_ptr<Graph> OpenMapped(const Graph& g) {
  const std::string path = test::UniqueTempPath("facets.rdfa");
  EXPECT_TRUE(rdf::SaveBinaryFile(g, path).ok());
  auto mapped = rdf::OpenMappedSnapshot(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().message();
  std::remove(path.c_str());  // the mapping outlives the directory entry
  return std::move(mapped).value();
}

// (seed, mapped backend)
class FacetsDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {
 protected:
  void SetUp() override {
    const auto [seed, mapped] = GetParam();
    heap_ = std::make_unique<Graph>();
    workload::ProductKgOptions opt;
    opt.laptops = 160;
    opt.companies = 10;
    opt.persons = 12;
    opt.countries = 5;
    opt.seed = seed;
    opt.missing_price_rate = 0.2;
    opt.multi_founder_rate = 0.4;
    workload::GenerateProductKg(heap_.get(), opt);
    rdf::MaterializeRdfsClosure(heap_.get());
    if (mapped) {
      graph_ = OpenMapped(*heap_);
      ASSERT_NE(graph_->mapped(), nullptr);
    }
  }

  Graph* graph() { return graph_ != nullptr ? graph_.get() : heap_.get(); }

  // Focus states reached by random clicks: class markers, values of
  // property facets and of path expansions, ranges, and Back.
  std::vector<Extension> RandomFoci(Session* s, std::mt19937_64& rng) {
    std::vector<Extension> foci = {s->current().ext};
    auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
    for (int step = 0; step < 10; ++step) {
      Status st;
      switch (pick(4)) {
        case 0: {
          std::vector<ClassFacet> classes = s->ClassFacets();
          if (classes.empty()) continue;
          const ClassFacet& c = classes[pick(classes.size())];
          st = s->ClickClass(graph()->terms().Get(c.cls).lexical());
          break;
        }
        case 1: {
          const std::vector<PropRef>& path = Paths()[pick(Paths().size())];
          PropertyFacet f = s->ExpandPath(path);
          if (f.values.empty()) continue;
          TermId v = f.values[pick(f.values.size())].value;
          st = s->ClickValue(path, graph()->terms().Get(v));
          break;
        }
        case 2:
          st = s->ClickRange({P("price")}, 300 + pick(1500), std::nullopt);
          break;
        default:
          st = s->Back();
          break;
      }
      if (st.ok()) foci.push_back(s->current().ext);
    }
    return foci;
  }

  std::unique_ptr<Graph> heap_;
  std::unique_ptr<Graph> graph_;  // the mapped copy, when mapped
};

TEST_P(FacetsDifferentialTest, MarkersMatchPerMemberReferences) {
  std::mt19937_64 rng(std::get<0>(GetParam()) * 7919 + 1);
  Session session(graph());
  const rdf::SchemaView& schema = session.schema();
  rdf::Vocab vocab(graph());
  FacetComputer fc(*graph(), schema, vocab);
  std::vector<Extension> foci = RandomFoci(&session, rng);
  ASSERT_GE(foci.size(), 4u);
  for (size_t i = 0; i < foci.size(); ++i) {
    SCOPED_TRACE("focus #" + std::to_string(i) + " of " +
                 std::to_string(foci[i].size()) + " members");
    const Extension& ext = foci[i];
    ExpectSortedUnique(ext, "focus");
    for (bool inverse : {false, true}) {
      std::vector<PropertyFacet> got = fc.PropertyFacets(ext, inverse);
      std::vector<PropertyFacet> want =
          RefPropertyFacets(*graph(), vocab, ext, inverse);
      ASSERT_EQ(got.size(), want.size()) << "inverse=" << inverse;
      for (size_t f = 0; f < got.size(); ++f) {
        ExpectSameFacet(got[f], want[f], want[f].prop.iri);
      }
    }
    CheckPathFacets(*graph(), fc, ext);
    CheckRanges(*graph(), fc, ext, rng);
    CheckClassFacets(*graph(), vocab, schema, fc, ext);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBackends, FacetsDifferentialTest,
    ::testing::Combine(::testing::Values(uint64_t{3}, uint64_t{17},
                                         uint64_t{101}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, bool>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_mapped" : "_heap");
    });

}  // namespace
}  // namespace rdfa::fs
