// Robustness suite for the HTTP server: randomized malformed requests,
// byte-at-a-time split reads, header-size bombs, and abrupt client
// disconnects — the server must never crash, never leak a connection slot
// (connections_open returns to 0), and always either answer valid HTTP or
// close cleanly. The concurrent hammer (many clients racing a WAL-writer
// thread through the MVCC store) also runs in the `sanitize` suite so a
// TSan build blesses the dispatcher/worker handoff.

#include "server/http_server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "endpoint/endpoint.h"
#include "endpoint/request_handler.h"
#include "rdf/mvcc.h"
#include "rdf/term.h"
#include "server/http_util.h"
#include "sparql/executor.h"
#include "workload/products.h"

namespace rdfa::server {
namespace {

constexpr char kQuery[] =
    "PREFIX ex: <http://www.ics.forth.gr/example#>\n"
    "SELECT ?l ?p WHERE { ?l ex:price ?p . }";

class ServerFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto base = std::make_unique<rdf::Graph>();
    workload::BuildRunningExample(base.get());
    rdf::MvccGraph::Options mopts;  // no WAL: in-memory MVCC
    mopts.update_fn = sparql::ApplyUpdate;
    auto opened = rdf::MvccGraph::Open(std::move(mopts), std::move(base));
    ASSERT_TRUE(opened.ok());
    mvcc_ = std::move(opened).value();
    endpoint_ = std::make_unique<endpoint::SimulatedEndpoint>(
        mvcc_.get(), endpoint::LatencyProfile::Local(), /*enable_cache=*/true);
    endpoint::AdmissionOptions adm;
    adm.base_timeout_ms = 0;
    adm.max_in_flight = 4;
    adm.max_queue = 64;
    endpoint_->set_admission(adm);
    handler_ = std::make_unique<endpoint::RequestHandler>(
        endpoint_.get(), /*max_timeout_ms=*/10'000);
    HttpServerOptions opts;
    opts.port = 0;
    opts.worker_threads = 3;
    opts.max_header_bytes = 2 * 1024;  // small caps: bombs trip fast
    opts.max_body_bytes = 4 * 1024;
    opts.read_timeout_ms = 100;  // garbage prefixes wait this out per iter
    server_ = std::make_unique<HttpServer>(handler_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  /// Waits (bounded) for the dispatcher to notice closed clients and return
  /// every connection slot. A leaked slot fails the expectation.
  void ExpectAllSlotsReturned() {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (server_->counters().connections_open > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server_->counters().connections_open, 0u);
  }

  /// The liveness probe after abuse: the server still answers correctly.
  void ExpectStillServing() {
    ASSERT_TRUE(server_->running());
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()));
    HttpClient::Response resp;
    ASSERT_TRUE(c.Get("/sparql?query=" + PercentEncode(kQuery), &resp));
    EXPECT_EQ(resp.status, 200);
  }

  std::unique_ptr<rdf::MvccGraph> mvcc_;
  std::unique_ptr<endpoint::SimulatedEndpoint> endpoint_;
  std::unique_ptr<endpoint::RequestHandler> handler_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerFuzzTest, RandomGarbageNeverCrashesOrLeaksSlots) {
  std::mt19937 rng(20240807);  // deterministic fuzz corpus
  const std::string pieces[] = {
      "GET", "BREW", "\x01\x02\xff", " /sparql", " HTTP/1.1", " HTTP/9.9",
      "\r\n", "\n", "Host: x", "Content-Length: 5", "Content-Length: -1",
      "Content-Length: 99999999999999999999", ":nocolon", " Bad Header:x",
      "Transfer-Encoding: chunked", "query=SELECT", "%", "%2", "%zz",
      "\r\n\r\n", std::string(64, 'A'),
  };
  constexpr size_t kPieceCount = sizeof(pieces) / sizeof(pieces[0]);
  for (int iter = 0; iter < 100; ++iter) {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()));
    std::string request;
    int n = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < n; ++i) request += pieces[rng() % kPieceCount];
    ASSERT_TRUE(c.SendRaw(request));
    if (rng() % 3 == 0) {
      c.Close();  // abrupt disconnect, maybe mid-request
    } else {
      // The server either answers valid HTTP or closes; both are clean.
      HttpClient::Response resp;
      if (c.ReadResponse(&resp)) {
        EXPECT_GE(resp.status, 200);
        EXPECT_LT(resp.status, 600);
      }
    }
  }
  ExpectStillServing();
  ExpectAllSlotsReturned();
}

TEST_F(ServerFuzzTest, RequestSplitAcrossManySyscallsStillParses) {
  HttpClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()));
  std::string request = "GET /sparql?query=" + PercentEncode(kQuery) +
                        " HTTP/1.1\r\nHost: t\r\nAccept: json\r\n\r\n";
  // Feed in 7-byte slivers with pauses: every read returns a fragment,
  // including splits inside the request line, a header name, and a
  // percent escape.
  for (size_t i = 0; i < request.size(); i += 7) {
    ASSERT_TRUE(c.SendRaw(request.substr(i, 7)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  HttpClient::Response resp;
  ASSERT_TRUE(c.ReadResponse(&resp));
  EXPECT_EQ(resp.status, 200);
}

TEST_F(ServerFuzzTest, HeaderBombIs431AndClose) {
  HttpClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()));
  std::string bomb = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 200; ++i) {
    bomb += "X-Filler-" + std::to_string(i) + ": " + std::string(64, 'z') +
            "\r\n";
  }
  ASSERT_TRUE(c.SendRaw(bomb));  // never terminated; cap trips first
  HttpClient::Response resp;
  ASSERT_TRUE(c.ReadResponse(&resp));
  EXPECT_EQ(resp.status, 431);
  EXPECT_FALSE(resp.keep_alive);
  ExpectStillServing();
  ExpectAllSlotsReturned();
}

TEST_F(ServerFuzzTest, StalledPartialRequestIs408) {
  HttpClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()));
  ASSERT_TRUE(c.SendRaw("GET /healthz HTT"));  // ...and never finish
  HttpClient::Response resp;
  ASSERT_TRUE(c.ReadResponse(&resp));  // fixture read_timeout is 100 ms
  EXPECT_EQ(resp.status, 408);
  ExpectAllSlotsReturned();
}

TEST_F(ServerFuzzTest, DisconnectBeforeReadingResponseLeaksNothing) {
  for (int i = 0; i < 30; ++i) {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()));
    ASSERT_TRUE(c.SendRaw("GET /sparql?query=" + PercentEncode(kQuery) +
                          " HTTP/1.1\r\nHost: t\r\n\r\n"));
    c.Close();  // gone before the response is written
  }
  ExpectStillServing();
  ExpectAllSlotsReturned();
}

// Concurrent hammer: clients racing valid and malformed traffic against a
// WAL-writer thread committing through the MVCC store. Run under TSan via
// the `sanitize` suite; under the plain build it is a correctness check
// that every answer is valid HTTP and nothing leaks.
TEST_F(ServerFuzzTest, ConcurrentClientsRacingWriterStayCoherent) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 40;
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    rdf::Term s = rdf::Term::Iri("http://www.ics.forth.gr/example#writer");
    rdf::Term p = rdf::Term::Iri("http://www.ics.forth.gr/example#tick");
    int tick = 0;
    while (!stop_writer.load(std::memory_order_acquire)) {
      mvcc_->Insert(s, p, rdf::Term::Integer(tick++));
      auto committed = mvcc_->Commit();
      EXPECT_TRUE(committed.ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> bad_responses{0};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937 rng(1000 + t);
      HttpClient c;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        if (!c.connected() && !c.Connect("127.0.0.1", server_->port())) {
          ++bad_responses;
          return;
        }
        int kind = static_cast<int>(rng() % 4);
        HttpClient::Response resp;
        bool got = false;
        if (kind == 0) {  // malformed: parser must answer 4xx/5xx and close
          c.SendRaw("BOGUS \r\n\r\n");
          got = c.ReadResponse(&resp);
          c.Close();
          if (got && resp.status < 400) ++bad_responses;
          continue;
        }
        const char* target =
            kind == 1 ? "/healthz"
                      : (kind == 2 ? "/metrics" : nullptr);
        got = target != nullptr
                  ? c.Get(target, &resp)
                  : c.Get("/sparql?query=" + PercentEncode(kQuery), &resp);
        if (!got) {
          c.Close();  // e.g. server closed after an error; reconnect next
          continue;
        }
        // Valid traffic may shed (503) under the tight admission cap, but
        // must never draw a parse-class error.
        if (resp.status != 200 && resp.status != 503) ++bad_responses;
      }
    });
  }
  for (auto& th : clients) th.join();
  stop_writer.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(bad_responses.load(), 0);
  ExpectStillServing();
  ExpectAllSlotsReturned();
  EXPECT_GT(mvcc_->Epoch(), 0u);
}

}  // namespace
}  // namespace rdfa::server
