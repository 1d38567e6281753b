#ifndef RDFA_TESTS_EQUIVALENCE_CORPUS_H_
#define RDFA_TESTS_EQUIVALENCE_CORPUS_H_

// The HIFUN translation-equivalence corpus (dissertation Proposition 2),
// shared by the equivalence suite and the grammar-variant test.

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "workload/invoices.h"
#include "workload/products.h"

namespace rdfa::test {

struct EquivalenceCase {
  std::string name;
  std::string hifun;
  std::string ns;
  size_t group_cols;
  /// Adds (year, ex:manufacturer, company) triples for the release years,
  /// so a hop after YEAR(releaseDate) reaches something.
  bool year_hops = false;
};

/// The graph a case's query runs over.
inline void BuildEquivalenceGraph(const EquivalenceCase& tc, rdf::Graph* g) {
  const std::string ex = workload::kExampleNs;
  if (tc.ns == workload::kInvoiceNs) {
    workload::BuildInvoicesExample(g);
    workload::InvoicesOptions opt;
    opt.invoices = 300;
    opt.branches = 5;
    opt.products = 20;
    opt.brands = 4;
    workload::GenerateInvoices(g, opt);
  } else {
    workload::BuildRunningExample(g);
    workload::ProductKgOptions opt;
    opt.laptops = 200;
    workload::GenerateProductKg(g, opt);
    for (int64_t year = 2018; tc.year_hops && year <= 2023; ++year) {
      g->Add(rdf::Term::Integer(year), rdf::Term::Iri(ex + "manufacturer"),
             rdf::Term::Iri(ex + "company" + std::to_string(year % 4)));
    }
  }
}

inline std::vector<EquivalenceCase> EquivalenceCorpus() {
  return {
        EquivalenceCase{"simple_sum",
                        "(takesPlaceAt, inQuantity, SUM) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"count_identity",
                        "(takesPlaceAt, ID, COUNT) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"avg_min_max",
                        "(takesPlaceAt, inQuantity, AVG+MIN+MAX) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"uri_restriction",
                        "(takesPlaceAt / = b1, inQuantity, SUM) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{
            "literal_restriction",
            "(takesPlaceAt, inQuantity / >= 100, SUM) over Invoice",
            workload::kInvoiceNs, 1},
        EquivalenceCase{"having",
                        "(takesPlaceAt, inQuantity, SUM / > 600) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"composition",
                        "(brand o delivers, inQuantity, SUM) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{"derived_month",
                        "(MONTH(hasDate), inQuantity, SUM) over Invoice",
                        workload::kInvoiceNs, 1},
        EquivalenceCase{
            "pairing",
            "((takesPlaceAt x delivers), inQuantity, SUM) over Invoice",
            workload::kInvoiceNs, 2},
        EquivalenceCase{
            "pairing_over_composition",
            "((takesPlaceAt x brand o delivers), inQuantity, SUM) over Invoice",
            workload::kInvoiceNs, 2},
        EquivalenceCase{
            "restriction_path",
            "(takesPlaceAt, inQuantity / delivers.brand = BrandA, SUM) over "
            "Invoice",
            workload::kInvoiceNs, 1},
        EquivalenceCase{"global_avg", "(eps, inQuantity, AVG) over Invoice",
                        workload::kInvoiceNs, 0},
        EquivalenceCase{
            "paper_425_full",
            "((takesPlaceAt x brand o delivers) / MONTH(hasDate) = 1, "
            "inQuantity / >= 2, SUM / > 150) over Invoice",
            workload::kInvoiceNs, 2},
        EquivalenceCase{
            "derived_restriction_year",
            "(takesPlaceAt, inQuantity / YEAR(hasDate) = 2021, SUM) over "
            "Invoice",
            workload::kInvoiceNs, 1},
        EquivalenceCase{
            "products_avg_price_by_manufacturer",
            "(manufacturer, price, AVG) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "products_origin_path",
            "(origin o manufacturer, price, AVG+COUNT) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "products_usb_restriction",
            "(manufacturer, price / USBPorts >= 2, AVG) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "products_year_group",
            "(YEAR(releaseDate), price, MAX) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "derived_in_composition",
            "(STR(origin) o manufacturer, price, AVG+COUNT) over Laptop",
            workload::kExampleNs, 1},
        EquivalenceCase{
            "hop_after_derived_step",
            "(manufacturer o YEAR(releaseDate), price, AVG+COUNT) over Laptop",
            workload::kExampleNs, 1, /*year_hops=*/true}
  };
}

}  // namespace rdfa::test

#endif  // RDFA_TESTS_EQUIVALENCE_CORPUS_H_
