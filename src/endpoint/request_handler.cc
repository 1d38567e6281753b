#include "endpoint/request_handler.h"

#include <cmath>

#include "common/string_util.h"
#include "common/trace.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/results_io.h"

namespace rdfa::endpoint {

const char* ContentTypeFor(ResultFormat format) {
  switch (format) {
    case ResultFormat::kJson: return "application/sparql-results+json";
    case ResultFormat::kTsv: return "text/tab-separated-values";
    case ResultFormat::kCsv: return "text/csv";
    case ResultFormat::kXml: return "application/sparql-results+xml";
  }
  return "application/sparql-results+json";
}

bool NegotiateFormat(const std::string& accept, ResultFormat* out) {
  // Accept headers arrive as comma-separated ranges with optional q-params;
  // the first recognized media type (or short format name) wins. Quality
  // factors are ignored — clients of this engine list what they want first.
  if (accept.empty()) {
    *out = ResultFormat::kJson;
    return true;
  }
  for (const std::string& part : SplitString(accept, ',')) {
    std::string range = ToLowerAscii(TrimWhitespace(part));
    size_t semi = range.find(';');
    if (semi != std::string::npos) {
      range = std::string(TrimWhitespace(range.substr(0, semi)));
    }
    if (range == "application/sparql-results+json" ||
        range == "application/json" || range == "json" || range == "*/*" ||
        range == "application/*") {
      *out = ResultFormat::kJson;
      return true;
    }
    if (range == "text/tab-separated-values" || range == "tsv") {
      *out = ResultFormat::kTsv;
      return true;
    }
    if (range == "text/csv" || range == "csv") {
      *out = ResultFormat::kCsv;
      return true;
    }
    if (range == "application/sparql-results+xml" || range == "xml" ||
        range == "text/*") {
      *out = ResultFormat::kXml;
      return true;
    }
  }
  return false;
}

RequestHandler::RequestHandler(SimulatedEndpoint* endpoint,
                               double max_timeout_ms)
    : endpoint_(endpoint),
      max_timeout_ms_(max_timeout_ms < 0 ? 0 : max_timeout_ms) {}

int RequestHandler::HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kResourceExhausted:
      return 503;  // shed by admission control; retryable
    case StatusCode::kDeadlineExceeded:
      return 504;  // budget tripped (queued or mid-execution)
    case StatusCode::kCancelled:
      return 499;  // client went away / cooperative kill
    case StatusCode::kInternal:
      return 500;
    default:
      return 400;  // parse error, unsupported feature, type error, ...
  }
}

std::string RequestHandler::Serialize(const sparql::ResultTable& table,
                                      ResultFormat format) {
  switch (format) {
    case ResultFormat::kJson: return sparql::WriteResultsJson(table);
    case ResultFormat::kTsv: return sparql::WriteResultsTsv(table);
    case ResultFormat::kCsv: return sparql::WriteResultsCsv(table);
    case ResultFormat::kXml: return sparql::WriteResultsXml(table);
  }
  return sparql::WriteResultsJson(table);
}

std::string RequestHandler::ErrorBody(const Status& status) {
  return std::string("{\"error\":\"") + JsonEscape(status.message()) +
         "\",\"code\":\"" + StatusCodeName(status.code()) + "\"}";
}

EndpointResponse RequestHandler::Handle(const EndpointRequest& request) {
  EndpointResponse out;
  // The request's own budget, capped by the handler's maximum; a request
  // that asks for none — or for a non-finite one — inherits the cap. The
  // endpoint's admission-derived budget still min-combines inside Query().
  QueryContext ctx = request.ctx;
  double budget = std::isfinite(request.timeout_ms) ? request.timeout_ms : 0;
  if (max_timeout_ms_ > 0 && (budget <= 0 || budget > max_timeout_ms_)) {
    budget = max_timeout_ms_;
  }
  if (budget > 0) ctx = ctx.ChildWithDeadlineMs(budget);

  Result<QueryResponse> served = endpoint_->Query(request.query, ctx);
  if (!served.ok()) {
    // Transport arm: unparsable query, engine failure. No QueryResponse
    // exists; classify and render the error document.
    out.status = served.status();
  } else {
    out.detail = std::move(served).value();
    out.status = out.detail.status;
  }
  out.http_status = HttpStatusFor(out.status);
  if (out.http_status == 200) {
    out.content_type = ContentTypeFor(request.format);
    TraceSpan span(ctx.tracer(), "serialize");
    out.body = Serialize(out.detail.table, request.format);
    span.Arg("rows", static_cast<uint64_t>(out.detail.table.num_rows()));
    span.Arg("bytes", static_cast<uint64_t>(out.body.size()));
  } else {
    out.content_type = "application/json";
    out.body = ErrorBody(out.status);
  }
  return out;
}

Result<std::string> RequestHandler::Explain(const std::string& query) const {
  Result<sparql::ParsedQuery> parsed = sparql::ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  // Plan against the head snapshot queries would execute against right
  // now; the pin keeps the version alive for the duration of planning.
  const rdf::MvccGraph::Pin pin = endpoint_->mvcc()->Snapshot();
  sparql::Executor exec(pin.graph.get());
  exec.set_thread_count(endpoint_->thread_count());
  exec.set_use_dp(endpoint_->use_dp());
  return exec.ExplainJson(parsed.value());
}

}  // namespace rdfa::endpoint
