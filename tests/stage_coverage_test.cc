// ExecStats splits a query's time into named stages. Over a query's
// Execute span, those stages must account for nearly all of it: time that
// passes inside no stage span is time no stage reports. The chain join and
// the drill-down with a GROUP BY alias (whose BIND interns one term per
// row) exercise the join, filter, bind, group-aggregate and projection
// spans.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "workload/products.h"

namespace rdfa {
namespace {

constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

// The median, over 5 serial runs, of the share of total_ms the stage
// fields account for.
double MedianStagedShare(rdf::Graph* g, const std::string& query) {
  auto parsed = sparql::ParseQuery(std::string(kPfx) + query);
  EXPECT_TRUE(parsed.ok()) << query;
  if (!parsed.ok()) return 0;
  sparql::Executor exec(g);
  EXPECT_TRUE(exec.Execute(parsed.value()).ok());  // warm-up
  std::vector<double> shares;
  for (int run = 0; run < 5; ++run) {
    EXPECT_TRUE(exec.Execute(parsed.value()).ok());
    const sparql::ExecStats& s = exec.stats();
    const double staged = s.index_build_ms + s.bgp_ms + s.filter_ms +
                          s.bind_ms + s.group_agg_ms + s.projection_ms +
                          s.order_ms;
    EXPECT_GE(s.total_ms, 2.0) << "too small to measure: " << s.Summary();
    shares.push_back(staged / s.total_ms);
  }
  std::sort(shares.begin(), shares.end());
  return shares[shares.size() / 2];
}

TEST(StageCoverageTest, StagesAccountForTheExecuteSpan) {
  rdf::Graph g;
  workload::ProductKgOptions opt;
  opt.laptops = 100000;
  opt.companies = 200;
  workload::GenerateProductKg(&g, opt);
  EXPECT_GE(MedianStagedShare(&g, "SELECT ?l ?m ?c WHERE { "
                                  "?l ex:manufacturer ?m . ?m ex:origin ?c }"),
            0.95);
  EXPECT_GE(MedianStagedShare(
                &g,
                "SELECT ?m ?y (AVG(?p) AS ?avg) WHERE { ?l a ex:Laptop . "
                "?l ex:manufacturer ?m . ?l ex:releaseDate ?d . "
                "?l ex:price ?p . FILTER(?p >= 500 && ?p <= 1500) } "
                "GROUP BY ?m (YEAR(?d) AS ?y) ORDER BY ?m ?y"),
            0.95);
}

}  // namespace
}  // namespace rdfa
