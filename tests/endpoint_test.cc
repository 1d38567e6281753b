#include "endpoint/endpoint.h"

#include <thread>

#include <gtest/gtest.h>

#include "test_store.h"
#include "workload/invoices.h"

namespace rdfa::endpoint {
namespace {

constexpr char kQuery[] =
    "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
    "SELECT ?b (SUM(?q) AS ?tot) WHERE { ?i inv:takesPlaceAt ?b . ?i "
    "inv:inQuantity ?q . } GROUP BY ?b";

class EndpointTest : public ::testing::Test {
 protected:
  std::unique_ptr<rdf::MvccGraph> store_ =
      test::SparqlStore(workload::BuildInvoicesExample);
};

TEST_F(EndpointTest, LocalProfileHasNoModeledOverhead) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local());
  auto resp = ep.Query(kQuery);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().network_ms, 0);
  EXPECT_EQ(resp.value().table.num_rows(), 3u);
  EXPECT_NEAR(resp.value().total_ms, resp.value().exec_ms, 1e-9);
}

TEST_F(EndpointTest, PeakSlowerThanOffPeak) {
  SimulatedEndpoint peak(store_.get(), LatencyProfile::Peak());
  SimulatedEndpoint off(store_.get(), LatencyProfile::OffPeak());
  auto rp = peak.Query(kQuery);
  auto ro = off.Query(kQuery);
  ASSERT_TRUE(rp.ok());
  ASSERT_TRUE(ro.ok());
  // Same answer either way.
  EXPECT_EQ(rp.value().table.num_rows(), ro.value().table.num_rows());
  // Peak network floor alone exceeds off-peak base + jitter.
  EXPECT_GT(rp.value().network_ms, ro.value().network_ms);
  EXPECT_GT(rp.value().total_ms, ro.value().total_ms);
}

TEST_F(EndpointTest, NetworkJitterIsDeterministic) {
  SimulatedEndpoint a(store_.get(), LatencyProfile::Peak());
  SimulatedEndpoint b(store_.get(), LatencyProfile::Peak());
  auto ra1 = a.Query(kQuery);
  auto ra2 = a.Query(kQuery);
  auto rb1 = b.Query(kQuery);
  auto rb2 = b.Query(kQuery);
  ASSERT_TRUE(ra1.ok() && ra2.ok() && rb1.ok() && rb2.ok());
  EXPECT_EQ(ra1.value().network_ms, rb1.value().network_ms);
  EXPECT_EQ(ra2.value().network_ms, rb2.value().network_ms);
}

TEST_F(EndpointTest, CacheHitsSkipExecution) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::OffPeak(),
                       /*enable_cache=*/true);
  auto first = ep.Query(kQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  auto second = ep.Query(kQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(second.value().exec_ms, 0);
  EXPECT_EQ(ep.cache_hits(), 1u);
  EXPECT_EQ(ep.queries_served(), 2u);
  ep.ClearCache();
  auto third = ep.Query(kQuery);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.value().cache_hit);
}

TEST_F(EndpointTest, ParseErrorsPropagate) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local());
  auto resp = ep.Query("SELECT FROM NOWHERE");
  EXPECT_EQ(resp.status().code(), StatusCode::kParseError);
}

TEST_F(EndpointTest, CachedAnswerEqualsFreshAnswer) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local(),
                       /*enable_cache=*/true);
  auto first = ep.Query(kQuery);
  auto second = ep.Query(kQuery);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().table.ToTsv(), second.value().table.ToTsv());
}

TEST_F(EndpointTest, EffectiveTimeoutTightensUnderLoad) {
  SimulatedEndpoint peak(store_.get(), LatencyProfile::Peak());
  SimulatedEndpoint off(store_.get(), LatencyProfile::OffPeak());
  AdmissionOptions opts;
  EXPECT_NEAR(off.effective_timeout_ms(), opts.base_timeout_ms, 1e-9);
  EXPECT_NEAR(peak.effective_timeout_ms(),
              opts.base_timeout_ms / LatencyProfile::Peak().load_multiplier,
              1e-9);
}

TEST_F(EndpointTest, ShedsWithResourceExhaustedWhenSaturated) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local());
  AdmissionOptions opts;
  opts.max_in_flight = 1;
  opts.max_queue = 0;  // no waiting room
  ep.set_admission(opts);

  auto held = ep.Admit();
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held.value().held());

  // The endpoint is occupied: the query is shed in-band, not errored.
  auto resp = ep.Query(kQuery);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(resp.value().table.num_rows(), 0u);
  EXPECT_NE(resp.value().status.ToString().find("0 queued"),
            std::string::npos);
  EXPECT_EQ(ep.Stats().shed, 1u);

  // Releasing the held slot restores service.
  held.value().Release();
  auto served = ep.Query(kQuery);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served.value().status.ok());
  EXPECT_EQ(served.value().table.num_rows(), 3u);
}

TEST_F(EndpointTest, QueuedQueryRunsOnceTheSlotFrees) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local());
  AdmissionOptions opts;
  opts.max_in_flight = 1;
  opts.max_queue = 1;
  ep.set_admission(opts);

  auto held = ep.Admit();
  ASSERT_TRUE(held.ok());

  Result<QueryResponse> queued = Status::Internal("unset");
  std::thread client([&] { queued = ep.Query(kQuery); });
  // Let the client enter the wait queue, then free the slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  held.value().Release();
  client.join();

  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_TRUE(queued.value().status.ok());
  EXPECT_EQ(queued.value().table.num_rows(), 3u);
  EXPECT_GT(queued.value().queued_ms, 0.0);
  EXPECT_EQ(ep.Stats().shed, 0u);
}

TEST_F(EndpointTest, QueuedQueryHonorsItsDeadline) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local());
  AdmissionOptions opts;
  opts.max_in_flight = 1;
  opts.max_queue = 4;
  ep.set_admission(opts);

  auto held = ep.Admit();
  ASSERT_TRUE(held.ok());

  // The slot is never released: the queued query must give up on its own
  // deadline with the typed status, not wait forever.
  auto resp = ep.Query(kQuery, QueryContext::WithDeadlineMs(30));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(resp.value().status.ToString().find("admission-queue"),
            std::string::npos);
  EXPECT_EQ(ep.Stats().timed_out, 1u);
}

TEST_F(EndpointTest, CancellingAQueuedQueryUnblocksIt) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local());
  AdmissionOptions opts;
  opts.max_in_flight = 1;
  opts.max_queue = 4;
  ep.set_admission(opts);

  auto held = ep.Admit();
  ASSERT_TRUE(held.ok());

  QueryContext ctx;
  Result<QueryResponse> queued = Status::Internal("unset");
  std::thread client([&] { queued = ep.Query(kQuery, ctx); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ctx.Cancel();
  client.join();

  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_EQ(queued.value().status.code(), StatusCode::kCancelled);
  EXPECT_EQ(ep.Stats().cancelled, 1u);
}

TEST_F(EndpointTest, TightBudgetTripsMidExecutionWithPartialStats) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local());
  AdmissionOptions opts;
  opts.base_timeout_ms = 1e-4;  // 100 ns: expires before the first check
  ep.set_admission(opts);

  auto resp = ep.Query(kQuery);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.value().exec_stats.aborted);
  EXPECT_EQ(resp.value().table.num_rows(), 0u);
  EndpointStats stats = ep.Stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.count, 1u);  // the trip is still logged
}

TEST_F(EndpointTest, StatsReportPercentiles) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::OffPeak());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ep.Query(kQuery).ok());
  EndpointStats stats = ep.Stats();
  EXPECT_EQ(stats.count, 5u);
  EXPECT_GT(stats.p50_total_ms, 0.0);
  EXPECT_GE(stats.p99_total_ms, stats.p50_total_ms);
}

// Regression anchor: the pre-generation cache kept serving the answer
// computed *before* a SPARQL UPDATE. The footprint stamp must turn that
// lookup into a miss (counted as an invalidation) and the re-executed
// answer must reflect the mutation.
TEST_F(EndpointTest, UpdateInvalidatesCachedAnswer) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local(),
                       /*enable_cache=*/true);
  auto before = ep.Query(kQuery);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before.value().status.ok());
  const std::string stale = before.value().table.ToTsv();

  const size_t triples_before = store_->Snapshot().graph->size();
  Status updated = test::CommitUpdate(
      store_.get(),
      "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
      "INSERT DATA { inv:i99 inv:takesPlaceAt inv:br1 . "
      "inv:i99 inv:inQuantity 1000 . }");
  ASSERT_TRUE(updated.ok()) << updated.ToString();
  ASSERT_GT(store_->Snapshot().graph->size(), triples_before);

  auto after = ep.Query(kQuery);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.value().status.ok());
  EXPECT_FALSE(after.value().cache_hit) << "served a stale cached answer";
  EXPECT_NE(after.value().table.ToTsv(), stale)
      << "the +1000 quantity is missing from the re-served answer";
  EXPECT_GE(ep.answer_cache_stats().invalidations, 1u);

  // The refreshed entry is served again at the new generation.
  auto again = ep.Query(kQuery);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().cache_hit);
  EXPECT_EQ(again.value().table.ToTsv(), after.value().table.ToTsv());
}

// Regression anchor: the pre-LRU cache was an unbounded map — distinct
// queries grew it forever. Residency must now respect the entry budget.
TEST_F(EndpointTest, CacheResidencyStaysBounded) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local(),
                       /*enable_cache=*/true);
  CacheOptions opts;
  opts.max_entries = 4;
  opts.shards = 1;  // one global LRU: exact bound, exact eviction order
  ep.set_cache_options(opts);
  for (int i = 0; i < 32; ++i) {
    std::string q =
        "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
        "SELECT ?b (SUM(?q) AS ?tot) WHERE { ?i inv:takesPlaceAt ?b . ?i "
        "inv:inQuantity ?q . FILTER(?q > " +
        std::to_string(i) + ") } GROUP BY ?b";
    auto resp = ep.Query(q);
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp.value().status.ok());
  }
  CacheStats stats = ep.answer_cache_stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_GE(stats.evictions, 28u);
}

TEST_F(EndpointTest, ClearCacheResetsHitCounter) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local(),
                       /*enable_cache=*/true);
  ASSERT_TRUE(ep.Query(kQuery).ok());
  ASSERT_TRUE(ep.Query(kQuery).ok());
  EXPECT_EQ(ep.cache_hits(), 1u);
  ep.ClearCache();
  // Hit-rate math restarts from scratch: the counter is zero, the next
  // repeat pair yields exactly one hit again.
  EXPECT_EQ(ep.cache_hits(), 0u);
  EXPECT_EQ(ep.answer_cache_stats().hits, 0u);
  ASSERT_TRUE(ep.Query(kQuery).ok());
  ASSERT_TRUE(ep.Query(kQuery).ok());
  EXPECT_EQ(ep.cache_hits(), 1u);
}

TEST_F(EndpointTest, PlanCacheHitSkipsParsingButNotExecution) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local(),
                       /*enable_cache=*/true);
  auto first = ep.Query(kQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().plan_cache_hit);
  EXPECT_EQ(ep.plan_cache_stats().entries, 1u);

  // An update keeps the answer cache from hitting; the plan is recomputed
  // too (plans validate against the statistics' generation).
  Status updated = test::CommitUpdate(
      store_.get(),
      "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
      "INSERT DATA { inv:i98 inv:takesPlaceAt inv:br2 . "
      "inv:i98 inv:inQuantity 7 . }");
  ASSERT_TRUE(updated.ok());
  auto second = ep.Query(kQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().cache_hit);
  EXPECT_FALSE(second.value().plan_cache_hit);
  EXPECT_TRUE(second.value().status.ok());
}

TEST_F(EndpointTest, PlanCacheServesWhenAnswerCacheCannotHold) {
  // A 1-byte answer budget keeps every answer out of the cache (oversized
  // entries are skipped), so repeats re-execute — but the plan layer still
  // hits, skipping the parse. The hit plans its BGP runs afresh on the same
  // snapshot, so it runs the miss's join order, strategies and plan shapes
  // and produces identical bytes.
  const char kStarChain[] =
      "PREFIX inv: <http://www.ics.forth.gr/invoices#>\n"
      "SELECT ?i ?b ?q ?br WHERE { ?i inv:takesPlaceAt ?b . ?i "
      "inv:inQuantity ?q . ?i inv:delivers ?p . ?p inv:brand ?br . }";
  for (const bool use_dp : {false, true}) {
    const char* query = use_dp ? kStarChain : kQuery;
    SimulatedEndpoint ep(store_.get(), LatencyProfile::Local(),
                         /*enable_cache=*/true);
    ep.set_use_dp(use_dp);
    CacheOptions opts;
    opts.max_bytes = 1;
    opts.shards = 1;
    ep.set_cache_options(opts);
    auto first = ep.Query(query);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value().status.ok());
    EXPECT_FALSE(first.value().plan_cache_hit);
    auto second = ep.Query(query);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second.value().status.ok());
    EXPECT_FALSE(second.value().cache_hit);
    EXPECT_TRUE(second.value().plan_cache_hit);
    EXPECT_EQ(second.value().table.ToTsv(), first.value().table.ToTsv());
    EXPECT_EQ(ep.plan_cache_stats().hits, 1u);
    EXPECT_EQ(ep.answer_cache_stats().entries, 0u);

    const sparql::ExecStats& miss = first.value().exec_stats;
    const sparql::ExecStats& hit = second.value().exec_stats;
    EXPECT_EQ(hit.join_order, miss.join_order) << query;
    EXPECT_EQ(hit.join_strategy, miss.join_strategy) << query;
    EXPECT_EQ(hit.plan_shapes, miss.plan_shapes) << query;
    if (use_dp) {
      // The DP run is seeded and its plan shape reported.
      ASSERT_EQ(miss.join_order.size(), 4u);
      ASSERT_EQ(miss.plan_shapes.size(), 1u);
      EXPECT_EQ(miss.dp_plans, 1u);
    }
  }
}

TEST_F(EndpointTest, ReformattedQuerySharesTheCacheEntry) {
  SimulatedEndpoint ep(store_.get(), LatencyProfile::Local(),
                       /*enable_cache=*/true);
  auto first = ep.Query(kQuery);
  ASSERT_TRUE(first.ok());
  // Same query, whitespace mangled: tabs, runs of spaces, trailing newline.
  std::string mangled;
  for (char c : std::string(kQuery)) {
    mangled += c;
    if (c == ' ') mangled += "\t ";
  }
  mangled += "\n\n";
  auto second = ep.Query(mangled);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(second.value().table.ToTsv(), first.value().table.ToTsv());
}

}  // namespace
}  // namespace rdfa::endpoint
