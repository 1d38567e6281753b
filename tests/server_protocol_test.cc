// Conformance suite for the HTTP SPARQL endpoint, driven against an
// in-process server on an ephemeral port: GET/POST parity, percent-decoding
// (including '+' vs %20 and truncated escapes), golden JSON/TSV bodies
// byte-checked against direct Executor output, the status-code protocol
// (400/404/405/406/413/415/503/504), keep-alive pipelining, and the
// differential guarantee that the HTTP path and the in-process
// RequestHandler produce byte-identical responses.

#include "server/http_server.h"

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "endpoint/endpoint.h"
#include "endpoint/request_handler.h"
#include "server/http_util.h"
#include "sparql/executor.h"
#include "sparql/results_io.h"
#include "test_store.h"
#include "workload/products.h"

namespace rdfa::server {
namespace {

constexpr char kPfx[] = "PREFIX ex: <http://www.ics.forth.gr/example#>\n";

const char kLaptopQuery[] =
    "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
    "SELECT ?l ?p WHERE { ?l ex:price ?p . }";

class ServerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    endpoint_ = std::make_unique<endpoint::SimulatedEndpoint>(
        store_.get(), endpoint::LatencyProfile::Local(),
        /*enable_cache=*/true);
    endpoint::AdmissionOptions adm;
    adm.base_timeout_ms = 0;  // the HTTP timeout cap governs
    endpoint_->set_admission(adm);
    handler_ = std::make_unique<endpoint::RequestHandler>(
        endpoint_.get(), /*max_timeout_ms=*/30'000);
    HttpServerOptions opts;
    opts.port = 0;
    opts.worker_threads = 3;
    opts.max_body_bytes = 64 * 1024;
    opts.read_timeout_ms = 500;  // stalled-request tests answer 408 fast
    server_ = std::make_unique<HttpServer>(handler_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  HttpClient Client() {
    HttpClient c;
    EXPECT_TRUE(c.Connect("127.0.0.1", server_->port()));
    return c;
  }

  std::string SparqlTarget(const std::string& query,
                           const std::string& extra = "") {
    return "/sparql?query=" + PercentEncode(query) + extra;
  }

  std::unique_ptr<rdf::MvccGraph> store_ =
      test::SparqlStore(workload::BuildRunningExample);
  std::unique_ptr<endpoint::SimulatedEndpoint> endpoint_;
  std::unique_ptr<endpoint::RequestHandler> handler_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerProtocolTest, GetAndPostVariantsAgreeByteForByte) {
  HttpClient c = Client();
  HttpClient::Response get, form, raw;
  ASSERT_TRUE(c.Get(SparqlTarget(kLaptopQuery), &get));
  ASSERT_TRUE(c.Post("/sparql", "application/x-www-form-urlencoded",
                     "query=" + PercentEncode(kLaptopQuery), &form));
  ASSERT_TRUE(c.Post("/sparql", "application/sparql-query", kLaptopQuery,
                     &raw));
  EXPECT_EQ(get.status, 200);
  EXPECT_EQ(form.status, 200);
  EXPECT_EQ(raw.status, 200);
  EXPECT_EQ(get.Header("content-type"), "application/sparql-results+json");
  EXPECT_FALSE(get.body.empty());
  EXPECT_EQ(get.body, form.body);
  EXPECT_EQ(get.body, raw.body);
}

TEST_F(ServerProtocolTest, JsonBodyMatchesDirectExecutorOutput) {
  auto direct = sparql::ExecuteQueryString(store_->Snapshot().graph.get(),
                                           kLaptopQuery);
  ASSERT_TRUE(direct.ok());
  HttpClient c = Client();
  HttpClient::Response resp;
  ASSERT_TRUE(c.Get(SparqlTarget(kLaptopQuery), &resp));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, sparql::WriteResultsJson(direct.value()));
}

TEST_F(ServerProtocolTest, TsvBodyMatchesDirectExecutorOutput) {
  auto direct = sparql::ExecuteQueryString(store_->Snapshot().graph.get(),
                                           kLaptopQuery);
  ASSERT_TRUE(direct.ok());
  HttpClient c = Client();
  // Once via Accept, once via the format= override; both must be the
  // executor's own TSV bytes.
  HttpClient::Response via_accept, via_param;
  ASSERT_TRUE(c.Get(SparqlTarget(kLaptopQuery), &via_accept,
                    "text/tab-separated-values"));
  ASSERT_TRUE(c.Get(SparqlTarget(kLaptopQuery, "&format=tsv"), &via_param));
  ASSERT_EQ(via_accept.status, 200);
  ASSERT_EQ(via_param.status, 200);
  EXPECT_EQ(via_accept.Header("content-type"), "text/tab-separated-values");
  EXPECT_EQ(via_accept.body, sparql::WriteResultsTsv(direct.value()));
  EXPECT_EQ(via_param.body, via_accept.body);
}

TEST_F(ServerProtocolTest, PlusAndPercent20BothDecodeToSpace) {
  std::string query = std::string(kPfx) +
                      "SELECT ?l WHERE { ?l ex:price ?p . }";
  // Build the same query twice: spaces as '+', then as %20.
  std::string plus, pct;
  for (char ch : query) {
    if (ch == ' ') {
      plus += '+';
      pct += "%20";
    } else if (ch == '\n') {
      plus += "%0A";
      pct += "%0A";
    } else {
      std::string enc = PercentEncode(std::string(1, ch));
      plus += enc;
      pct += enc;
    }
  }
  HttpClient c = Client();
  HttpClient::Response r_plus, r_pct;
  ASSERT_TRUE(c.Get("/sparql?query=" + plus, &r_plus));
  ASSERT_TRUE(c.Get("/sparql?query=" + pct, &r_pct));
  EXPECT_EQ(r_plus.status, 200);
  EXPECT_EQ(r_pct.status, 200);
  EXPECT_EQ(r_plus.body, r_pct.body);
}

TEST_F(ServerProtocolTest, TruncatedPercentEscapeIs400) {
  HttpClient c = Client();
  for (const char* target :
       {"/sparql?query=%x", "/sparql?query=%", "/sparql?query=%2"}) {
    HttpClient::Response resp;
    ASSERT_TRUE(c.Get(target, &resp)) << target;
    EXPECT_EQ(resp.status, 400) << target;
    EXPECT_NE(resp.body.find("percent-encoding"), std::string::npos);
  }
}

TEST_F(ServerProtocolTest, UnparsableQueryIs400WithErrorDocument) {
  HttpClient c = Client();
  HttpClient::Response resp;
  ASSERT_TRUE(c.Get(SparqlTarget("THIS IS NOT SPARQL"), &resp));
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(resp.Header("content-type"), "application/json");
  EXPECT_NE(resp.body.find("\"code\":\"ParseError\""), std::string::npos);
}

TEST_F(ServerProtocolTest, ShedRequestIs503) {
  endpoint::AdmissionOptions tight;
  tight.max_in_flight = 1;
  tight.max_queue = 0;
  tight.base_timeout_ms = 0;
  endpoint_->set_admission(tight);
  // Hold the only slot so the HTTP request must shed.
  auto slot = endpoint_->Admit();
  ASSERT_TRUE(slot.ok());
  HttpClient c = Client();
  HttpClient::Response resp;
  ASSERT_TRUE(c.Get(SparqlTarget(kLaptopQuery), &resp));
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("\"code\":\"ResourceExhausted\""),
            std::string::npos);
}

TEST_F(ServerProtocolTest, ExpiredDeadlineIs504) {
  HttpClient c = Client();
  HttpClient::Response resp;
  // A one-microsecond budget has expired before execution reaches its
  // first cooperative check.
  ASSERT_TRUE(c.Get(SparqlTarget(kLaptopQuery, "&timeout=0.001"), &resp));
  EXPECT_EQ(resp.status, 504);
  EXPECT_NE(resp.body.find("\"code\":\"DeadlineExceeded\""),
            std::string::npos);
}

TEST(RequestHandlerTest, NonFiniteTimeoutTakesTheCap) {
  // A timeout that is no number (timeout=nan on the wire) must not escape
  // the cap: it is treated as absent, so the tiny cap expires the query.
  auto store = test::SparqlStore(workload::BuildRunningExample);
  endpoint::SimulatedEndpoint ep(store.get(),
                                 endpoint::LatencyProfile::Local(),
                                 /*enable_cache=*/false);
  endpoint::AdmissionOptions adm;
  adm.base_timeout_ms = 0;
  ep.set_admission(adm);
  endpoint::RequestHandler handler(&ep, /*max_timeout_ms=*/1e-6);
  for (double timeout : {std::nan(""), 0.0}) {
    endpoint::EndpointRequest req;
    req.query = kLaptopQuery;
    req.timeout_ms = timeout;
    EXPECT_EQ(handler.Handle(req).http_status, 504) << timeout;
  }
}

TEST_F(ServerProtocolTest, KeepAlivePipelinedRequestsAnswerInOrder) {
  HttpClient c = Client();
  std::string req1 = "GET " + SparqlTarget(kLaptopQuery) +
                     " HTTP/1.1\r\nHost: t\r\n\r\n";
  std::string req2 = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(c.SendRaw(req1 + req2));  // both requests in one write
  HttpClient::Response first, second;
  ASSERT_TRUE(c.ReadResponse(&first));
  ASSERT_TRUE(c.ReadResponse(&second));
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.Header("content-type"), "application/sparql-results+json");
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(second.body, "ok\n");
  // The connection survived both: a third request still works.
  HttpClient::Response third;
  ASSERT_TRUE(c.Get("/healthz", &third));
  EXPECT_EQ(third.status, 200);
}

TEST_F(ServerProtocolTest, OversizedBodyIs413) {
  HttpClient c = Client();
  HttpClient::Response resp;
  std::string huge(65 * 1024, 'x');  // over the fixture's 64 KiB cap
  ASSERT_TRUE(c.Post("/sparql", "application/sparql-query", huge, &resp));
  EXPECT_EQ(resp.status, 413);
  EXPECT_FALSE(resp.keep_alive);
}

TEST_F(ServerProtocolTest, ProtocolErrorsCarryTheRightStatus) {
  struct Case {
    std::string raw;
    int status;
  };
  const Case cases[] = {
      {"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n", 404},
      {"DELETE /sparql HTTP/1.1\r\nHost: t\r\n\r\n", 405},
      {"GET /sparql HTTP/1.1\r\nHost: t\r\n\r\n", 400},  // missing query=
      {"GET /sparql?query=x HTTP/2.0\r\nHost: t\r\n\r\n", 505},
      {"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: text/weird\r\n"
       "Content-Length: 1\r\n\r\nx",
       415},
  };
  for (const Case& tc : cases) {
    HttpClient c = Client();
    ASSERT_TRUE(c.SendRaw(tc.raw));
    HttpClient::Response resp;
    ASSERT_TRUE(c.ReadResponse(&resp)) << tc.raw;
    EXPECT_EQ(resp.status, tc.status) << tc.raw;
  }
}

TEST_F(ServerProtocolTest, UnsupportedAcceptIs406) {
  HttpClient c = Client();
  HttpClient::Response resp;
  ASSERT_TRUE(c.Get(SparqlTarget(kLaptopQuery), &resp, "application/pdf"));
  EXPECT_EQ(resp.status, 406);
}

TEST_F(ServerProtocolTest, HealthMetricsAndExplainServe) {
  HttpClient c = Client();
  HttpClient::Response health, metrics, explain;
  ASSERT_TRUE(c.Get("/healthz", &health));
  EXPECT_EQ(health.status, 200);
  ASSERT_TRUE(c.Get(SparqlTarget(kLaptopQuery), &metrics));  // serve one
  ASSERT_TRUE(c.Get("/metrics", &metrics));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("rdfa_http_requests_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("rdfa_queries_total"), std::string::npos);
  ASSERT_TRUE(c.Get("/explain?query=" + PercentEncode(kLaptopQuery),
                    &explain));
  EXPECT_EQ(explain.status, 200);
  EXPECT_NE(explain.body.find("\"bgps\""), std::string::npos);
}

// /explain pins the head snapshot per request. A predicate absent at epoch
// 0 makes the plan impossible; after a commit inserts it, the plan is costed
// on the new version's statistics, not on the version served at start.
TEST_F(ServerProtocolTest, ExplainPlansAgainstTheCommittedHead) {
  const std::string q =
      std::string(kPfx) + "SELECT ?l ?v WHERE { ?l ex:newPoke ?v . }";
  HttpClient c = Client();
  HttpClient::Response before, after;
  ASSERT_TRUE(c.Get("/explain?query=" + PercentEncode(q), &before));
  ASSERT_EQ(before.status, 200);
  EXPECT_NE(before.body.find("\"impossible\":true"), std::string::npos)
      << before.body;

  Status committed = test::CommitUpdate(
      store_.get(),
      std::string(kPfx) +
          "INSERT DATA { ex:laptop1 ex:newPoke 1 . ex:laptop2 ex:newPoke 2 . "
          "ex:laptop3 ex:newPoke 3 . }");
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  ASSERT_TRUE(c.Get("/explain?query=" + PercentEncode(q), &after));
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(after.body.find("\"impossible\":true"), std::string::npos)
      << after.body;
  EXPECT_NE(after.body.find("\"est_rows\":3,"), std::string::npos)
      << after.body;
}

// The differential guarantee behind the shared RequestHandler: pushing a
// request through the in-process pipeline and over a live socket yields
// byte-identical bodies and the same status, for every outcome class.
TEST_F(ServerProtocolTest, HttpAndInProcessPipelinesAreByteIdentical) {
  struct Case {
    std::string query;
    endpoint::ResultFormat format;
    std::string accept;
  };
  const Case cases[] = {
      {kLaptopQuery, endpoint::ResultFormat::kJson, ""},
      {kLaptopQuery, endpoint::ResultFormat::kTsv,
       "text/tab-separated-values"},
      {std::string(kPfx) +
           "SELECT ?l ?m ?c WHERE { ?l ex:manufacturer ?m . "
           "?m ex:origin ?c . }",
       endpoint::ResultFormat::kCsv, "text/csv"},
      {"SELECT nonsense", endpoint::ResultFormat::kJson, ""},
  };
  for (const Case& tc : cases) {
    endpoint::EndpointRequest er;
    er.query = tc.query;
    er.format = tc.format;
    endpoint::EndpointResponse direct = handler_->Handle(er);

    HttpClient c = Client();
    HttpClient::Response over_http;
    ASSERT_TRUE(c.Get(SparqlTarget(tc.query), &over_http, tc.accept));
    EXPECT_EQ(over_http.status, direct.http_status) << tc.query;
    EXPECT_EQ(over_http.body, direct.body) << tc.query;
    EXPECT_EQ(over_http.Header("content-type"), direct.content_type);
  }
  // Outcome counters agree with what was served: every case above entered
  // the endpoint exactly twice — once per path — and none shed or timed
  // out on either path.
  EXPECT_EQ(endpoint_->Stats().shed, 0u);
  EXPECT_EQ(endpoint_->Stats().timed_out, 0u);
  EXPECT_EQ(endpoint_->queries_served(), 2u * 4u);
}

}  // namespace
}  // namespace rdfa::server
