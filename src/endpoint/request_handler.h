#ifndef RDFA_ENDPOINT_REQUEST_HANDLER_H_
#define RDFA_ENDPOINT_REQUEST_HANDLER_H_

#include <string>

#include "common/query_context.h"
#include "common/status.h"
#include "endpoint/endpoint.h"

namespace rdfa::endpoint {

/// Result serializations the request pipeline can negotiate. JSON and TSV
/// are the wire defaults (SPARQL 1.1 results formats); CSV and XML ride
/// along because the serializers already exist.
enum class ResultFormat { kJson, kTsv, kCsv, kXml };

/// The format's canonical media type (what an HTTP response advertises).
const char* ContentTypeFor(ResultFormat format);

/// Maps an Accept-header value (or a `format=` parameter: "json", "tsv",
/// "csv", "xml") to a ResultFormat. Exact media types win; empty input and
/// `*/*` fall back to JSON. Returns false for a value that names none of
/// the supported serializations (an HTTP 406).
bool NegotiateFormat(const std::string& accept, ResultFormat* out);

/// One request as the transport-independent pipeline sees it: decoded query
/// text plus the request-scoped knobs every front-end (HTTP, simulated,
/// differential tests) must agree on.
struct EndpointRequest {
  std::string query;
  /// Requested per-request deadline in milliseconds; 0 (or a non-finite
  /// value) = none. The handler caps it at its configured maximum, and the
  /// endpoint's own admission budget still combines in (the tightest
  /// deadline wins).
  double timeout_ms = 0;
  ResultFormat format = ResultFormat::kJson;
  /// Caller-supplied cancellation/deadline handle (shared cancel state).
  QueryContext ctx;
};

/// The pipeline's answer: a protocol status code, a serialized body, and
/// the engine-level response for callers that want timings or stats.
struct EndpointResponse {
  /// HTTP-shaped outcome: 200 served, 400 parse error, 499 cancelled,
  /// 500 engine failure, 503 shed, 504 deadline exceeded.
  int http_status = 200;
  /// Media type of `body` (the negotiated format on 200, application/json
  /// for error documents).
  std::string content_type;
  /// Serialized result table on 200; a one-object JSON error document
  /// ({"error":...,"code":...}) otherwise.
  std::string body;
  /// Same classification the simulated path reports on QueryResponse.
  Status status;
  /// Engine response (timings, cache flags, partial ExecStats). On
  /// transport-arm failures (parse errors) only `status` is meaningful.
  QueryResponse detail;
};

/// The one request→admission→execute→serialize pipeline shared by every
/// front-end. The HTTP server parses bytes into an EndpointRequest and
/// writes the EndpointResponse back out; the simulated endpoint *is* the
/// execution stage (Handle calls SimulatedEndpoint::Query, so admission,
/// deadlines, caching, MVCC snapshots, tracing and the query log all apply
/// identically however a request arrives). The differential suite pushes
/// one query set through Handle directly and through a live socket and
/// asserts byte-identical bodies and identical outcome counters.
class RequestHandler {
 public:
  /// `max_timeout_ms` caps (and, for requests that ask for none, supplies)
  /// the per-request deadline; 0 = requests run uncapped unless they ask.
  explicit RequestHandler(SimulatedEndpoint* endpoint,
                          double max_timeout_ms = 0);

  EndpointResponse Handle(const EndpointRequest& request);

  /// EXPLAIN for GET /explain: plans the query with the endpoint's
  /// configured planner knobs and returns the plan JSON — no data rows are
  /// touched. In MVCC mode the plan is computed against a pinned snapshot.
  Result<std::string> Explain(const std::string& query) const;

  SimulatedEndpoint* endpoint() const { return endpoint_; }
  double max_timeout_ms() const { return max_timeout_ms_; }

  /// The HTTP status the pipeline assigns to an endpoint outcome; exposed
  /// so front-ends and tests share one mapping.
  static int HttpStatusFor(const Status& status);

  /// Serializes `table` in `format` (the shared serialize stage).
  static std::string Serialize(const sparql::ResultTable& table,
                               ResultFormat format);

  /// Renders the JSON error document used for every non-200 outcome.
  static std::string ErrorBody(const Status& status);

 private:
  SimulatedEndpoint* endpoint_;
  double max_timeout_ms_;
};

}  // namespace rdfa::endpoint

#endif  // RDFA_ENDPOINT_REQUEST_HANDLER_H_
