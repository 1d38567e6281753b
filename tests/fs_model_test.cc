#include <gtest/gtest.h>

#include "fs/facets.h"
#include "fs/hierarchy.h"
#include "fs/session.h"
#include "fs/state.h"
#include "sparql/executor.h"
#include "rdf/rdfs.h"
#include "viz/table_render.h"
#include "workload/products.h"

namespace rdfa::fs {
namespace {

const std::string kEx = workload::kExampleNs;

class FsModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::BuildRunningExample(&g_);
    rdf::MaterializeRdfsClosure(&g_);
  }
  rdf::TermId Id(const std::string& local) {
    return g_.terms().FindIri(kEx + local);
  }
  PropRef P(const std::string& local, bool inverse = false) {
    return PropRef{kEx + local, inverse};
  }
  rdf::Graph g_;
};

TEST_F(FsModelTest, RestrictByPropertyValue) {
  Extension laptops =
      MakeExtension({Id("laptop1"), Id("laptop2"), Id("laptop3")});
  Extension dell = Restrict(g_, laptops, P("manufacturer"), Id("DELL"));
  EXPECT_EQ(dell.size(), 2u);
  EXPECT_TRUE(Contains(dell, Id("laptop1")));
  EXPECT_TRUE(Contains(dell, Id("laptop2")));
}

TEST_F(FsModelTest, RestrictInverse) {
  Extension companies =
      MakeExtension({Id("DELL"), Id("Lenovo"), Id("Maxtor")});
  // Companies that manufacture laptop1: inverse of manufacturer.
  Extension made = Restrict(g_, companies, P("manufacturer", true),
                            Id("laptop1"));
  EXPECT_EQ(made.size(), 1u);
  EXPECT_TRUE(Contains(made, Id("DELL")));
}

TEST_F(FsModelTest, RestrictSetUnions) {
  Extension laptops =
      MakeExtension({Id("laptop1"), Id("laptop2"), Id("laptop3")});
  Extension vset = MakeExtension({Id("DELL"), Id("Lenovo")});
  Extension all = RestrictSet(g_, laptops, P("manufacturer"), vset);
  EXPECT_EQ(all.size(), 3u);
}

TEST_F(FsModelTest, RestrictClassUsesClosure) {
  Extension everything;
  for (const rdf::TripleId& t : g_.triples()) everything.push_back(t.s);
  everything = MakeExtension(everything);
  Extension products = RestrictClass(g_, everything, Id("Product"));
  // With the RDFS closure, laptops AND drives are Products: 3 + 3.
  EXPECT_EQ(products.size(), 6u);
}

TEST_F(FsModelTest, JoinsCollectsValues) {
  Extension laptops =
      MakeExtension({Id("laptop1"), Id("laptop2"), Id("laptop3")});
  Extension manufacturers = Joins(g_, laptops, P("manufacturer"));
  EXPECT_EQ(manufacturers.size(), 2u);
  EXPECT_TRUE(Contains(manufacturers, Id("DELL")));
  EXPECT_TRUE(Contains(manufacturers, Id("Lenovo")));
}

TEST_F(FsModelTest, JoinsInverse) {
  Extension usa = {Id("USA")};
  Extension located = Joins(g_, usa, P("origin", true));
  EXPECT_EQ(located.size(), 2u);  // DELL and AVDElectronics
}

TEST_F(FsModelTest, SessionStartsWithAllIndividuals) {
  Session s(&g_);
  EXPECT_GT(s.current().ext.size(), 10u);
  EXPECT_TRUE(Contains(s.current().ext, Id("laptop1")));
  EXPECT_TRUE(Contains(s.current().ext, Id("DELL")));
}

TEST_F(FsModelTest, ClassFacetCountsMatchFig54a) {
  // Fig 5.4 (a): Company (4), Location (5), Person (3), Product (6).
  Session s(&g_);
  auto facets = s.ClassFacets();
  std::map<std::string, size_t> counts;
  std::map<std::string, const ClassFacet*> by_name;
  for (const auto& f : facets) {
    counts[viz::LocalName(g_.terms().Get(f.cls).lexical())] = f.count;
    by_name[viz::LocalName(g_.terms().Get(f.cls).lexical())] = &f;
  }
  EXPECT_EQ(counts["Company"], 4u);
  EXPECT_EQ(counts["Location"], 5u);
  EXPECT_EQ(counts["Person"], 3u);
  EXPECT_EQ(counts["Product"], 6u);
  // Fig 5.4 (b): Product expands to HDType (3) [SSD (2), NVMe (1)] and
  // Laptop (3).
  ASSERT_TRUE(by_name.count("Product"));
  std::map<std::string, size_t> product_children;
  for (const auto& c : by_name["Product"]->children) {
    product_children[viz::LocalName(g_.terms().Get(c.cls).lexical())] =
        c.count;
  }
  EXPECT_EQ(product_children["HDType"], 3u);
  EXPECT_EQ(product_children["Laptop"], 3u);
}

TEST_F(FsModelTest, ClickClassNarrowsExtension) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  EXPECT_EQ(s.current().ext.size(), 3u);
  EXPECT_EQ(s.current().intent.root_class, kEx + "Laptop");
}

TEST_F(FsModelTest, PropertyFacetsMatchFig54c) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  auto facets = s.PropertyFacets();
  std::map<std::string, const PropertyFacet*> by_name;
  for (const auto& f : facets) by_name[viz::LocalName(f.prop.iri)] = &f;
  // Fig 5.4 (c): by manufacturer (2): DELL (2), Lenovo (1).
  ASSERT_TRUE(by_name.count("manufacturer"));
  const PropertyFacet* man = by_name["manufacturer"];
  ASSERT_EQ(man->values.size(), 2u);
  std::map<std::string, size_t> vals;
  for (const auto& vc : man->values) {
    vals[viz::LocalName(g_.terms().Get(vc.value).lexical())] = vc.count;
  }
  EXPECT_EQ(vals["DELL"], 2u);
  EXPECT_EQ(vals["Lenovo"], 1u);
  // by USBports (3): 2 (2), 4 (1).
  ASSERT_TRUE(by_name.count("USBPorts"));
  std::map<std::string, size_t> usb;
  for (const auto& vc : by_name["USBPorts"]->values) {
    usb[g_.terms().Get(vc.value).lexical()] = vc.count;
  }
  EXPECT_EQ(usb["2"], 2u);
  EXPECT_EQ(usb["4"], 1u);
}

TEST_F(FsModelTest, ClickValueTransition) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  Status st = s.ClickValue({P("manufacturer")},
                           rdf::Term::Iri(kEx + "DELL"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(s.current().ext.size(), 2u);
}

TEST_F(FsModelTest, PathExpansionMarkersMatchFig55b) {
  // Fig 5.5 (b): laptops > by manufacturer > by origin: US (1), China (1).
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  PropertyFacet f = s.ExpandPath({P("manufacturer"), P("origin")});
  std::map<std::string, size_t> vals;
  for (const auto& vc : f.values) {
    vals[viz::LocalName(g_.terms().Get(vc.value).lexical())] = vc.count;
  }
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals["USA"], 2u);    // two DELL laptops reach USA
  EXPECT_EQ(vals["China"], 1u);
}

TEST_F(FsModelTest, PathValueClickBackPropagates) {
  // Eq. 5.1: selecting USA at the end of manufacturer/origin keeps only the
  // DELL laptops.
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  Status st = s.ClickValue({P("manufacturer"), P("origin")},
                           rdf::Term::Iri(kEx + "USA"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(s.current().ext.size(), 2u);
  EXPECT_TRUE(Contains(s.current().ext, Id("laptop1")));
  EXPECT_TRUE(Contains(s.current().ext, Id("laptop2")));
}

TEST_F(FsModelTest, LongerPathExpansion) {
  // laptops -> hardDrive -> manufacturer -> origin (Fig 5.5 b bottom).
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  PropertyFacet f =
      s.ExpandPath({P("hardDrive"), P("manufacturer"), P("origin")});
  std::map<std::string, size_t> vals;
  for (const auto& vc : f.values) {
    vals[viz::LocalName(g_.terms().Get(vc.value).lexical())] = vc.count;
  }
  EXPECT_EQ(vals["Singapore"], 2u);  // SSD1 + NVMe1 by Maxtor
  EXPECT_EQ(vals["USA"], 1u);        // SSD2 by AVDElectronics
}

TEST_F(FsModelTest, RangeFilterOnNumericProperty) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  Status st = s.ClickRange({P("USBPorts")}, 2, 3);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(s.current().ext.size(), 2u);
}

TEST_F(FsModelTest, RangeOnPath) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  // GDP per capita of manufacturer origin >= 70000: USA only.
  Status st = s.ClickRange({P("manufacturer"), P("origin"), P("GDPPerCapita")},
                           70000, std::nullopt);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(s.current().ext.size(), 2u);
}

TEST_F(FsModelTest, EmptyTransitionRefused) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  // No laptop has 9 USB ports: value absent from graph -> NotFound.
  Status st = s.ClickValue({P("USBPorts")}, rdf::Term::Integer(9));
  EXPECT_FALSE(st.ok());
  // 5 exists nowhere either.
  st = s.ClickRange({P("USBPorts")}, 7, 9);
  EXPECT_FALSE(st.ok());
  // State unchanged.
  EXPECT_EQ(s.current().ext.size(), 3u);
}

TEST_F(FsModelTest, BackPopsState) {
  Session s(&g_);
  size_t initial = s.current().ext.size();
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  ASSERT_TRUE(s.Back().ok());
  EXPECT_EQ(s.current().ext.size(), initial);
  // Back at the initial state fails.
  EXPECT_FALSE(s.Back().ok());
}

TEST_F(FsModelTest, IntentionSparqlComputesExtension) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  ASSERT_TRUE(
      s.ClickValue({P("manufacturer"), P("origin")}, rdf::Term::Iri(kEx + "USA"))
          .ok());
  std::string q = s.current().intent.ToSparql();
  auto res = sparql::ExecuteQueryString(&g_, q);
  ASSERT_TRUE(res.ok()) << res.status().ToString() << "\n" << q;
  EXPECT_EQ(res.value().num_rows(), s.current().ext.size());
}

TEST_F(FsModelTest, SparqlOnlyModeAgreesWithNative) {
  Session native(&g_, EvalMode::kNative);
  Session sparql_only(&g_, EvalMode::kSparqlOnly);
  for (Session* s : {&native, &sparql_only}) {
    ASSERT_TRUE(s->ClickClass(kEx + "Laptop").ok());
    ASSERT_TRUE(s->ClickRange({P("USBPorts")}, 2, 2).ok());
  }
  EXPECT_EQ(native.current().ext, sparql_only.current().ext);
}

TEST_F(FsModelTest, StartFromResultsSeedsExtension) {
  Session s(&g_);
  s.StartFromResults({Id("laptop1"), Id("laptop3")});
  EXPECT_EQ(s.current().ext.size(), 2u);
  auto facets = s.PropertyFacets();
  EXPECT_FALSE(facets.empty());
}

TEST_F(FsModelTest, RenderTextShowsCounts) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  std::string text = s.RenderText();
  EXPECT_NE(text.find("manufacturer"), std::string::npos);
  EXPECT_NE(text.find("(2)"), std::string::npos);
}

TEST_F(FsModelTest, FacetMemoizationInvalidatedByTransitions) {
  Session s(&g_);
  ASSERT_TRUE(s.ClickClass(kEx + "Laptop").ok());
  auto first = s.PropertyFacets();
  auto again = s.PropertyFacets();  // memoized path
  ASSERT_EQ(first.size(), again.size());
  // A transition must invalidate the memo: facets change.
  ASSERT_TRUE(
      s.ClickValue({P("manufacturer")}, rdf::Term::Iri(kEx + "Lenovo")).ok());
  auto after = s.PropertyFacets();
  bool changed = after.size() != first.size();
  if (!changed) {
    for (size_t i = 0; i < after.size(); ++i) {
      if (after[i].values.size() != first[i].values.size()) changed = true;
    }
  }
  EXPECT_TRUE(changed);
  // Back() restores the previous facet view.
  ASSERT_TRUE(s.Back().ok());
  auto restored = s.PropertyFacets();
  ASSERT_EQ(restored.size(), first.size());
  for (size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i].values.size(), first[i].values.size());
  }
}

TEST(HierarchyTest, TransitiveReduction) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  rdf::Vocab v(&g);
  rdf::SchemaView schema(g, v);
  auto forest = BuildClassForest(schema, schema.classes());
  // Find Product root; SSD must hang under HDType, not directly under
  // Product.
  const HierarchyNode* product = nullptr;
  for (const auto& root : forest) {
    if (viz::LocalName(g.terms().Get(root.term).lexical()) == "Product") {
      product = &root;
    }
  }
  ASSERT_NE(product, nullptr);
  bool ssd_under_product = false;
  bool ssd_under_hdtype = false;
  for (const auto& child : product->children) {
    std::string name = viz::LocalName(g.terms().Get(child.term).lexical());
    if (name == "SSD") ssd_under_product = true;
    if (name == "HDType") {
      for (const auto& gc : child.children) {
        if (viz::LocalName(g.terms().Get(gc.term).lexical()) == "SSD") {
          ssd_under_hdtype = true;
        }
      }
    }
  }
  EXPECT_FALSE(ssd_under_product);
  EXPECT_TRUE(ssd_under_hdtype);
}

TEST(HierarchyTest, RestrictedApplicableSetSkipsLevels) {
  rdf::Graph g;
  workload::BuildRunningExample(&g);
  rdf::Vocab v(&g);
  rdf::SchemaView schema(g, v);
  // Without HDType in the applicable set, SSD's nearest applicable ancestor
  // is Product.
  std::set<rdf::TermId> applicable = {
      g.terms().FindIri(kEx + "Product"),
      g.terms().FindIri(kEx + "SSD"),
  };
  auto forest = BuildClassForest(schema, applicable);
  ASSERT_EQ(forest.size(), 1u);
  ASSERT_EQ(forest[0].children.size(), 1u);
  EXPECT_EQ(g.terms().Get(forest[0].children[0].term).lexical(), kEx + "SSD");
}

}  // namespace
}  // namespace rdfa::fs
