#include "service/request_runner.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/request_codec.hpp"

namespace rta::service {

RunnerStats run_request_stream(AdmissionSession& session, std::istream& in,
                               std::ostream& out) {
  RunnerStats stats;
  obs::Histogram latency;
  obs::MetricsRegistry* metrics = session.config().analysis.observer.metrics;
  obs::Tracer* tracer = session.config().analysis.observer.tracer;
  if (metrics != nullptr) {
    latency = metrics->histogram("service.request_us",
                                 obs::MetricsRegistry::latency_buckets_us());
  }

  std::string line;
  std::string response;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (detail::is_skipped_line(line)) continue;

    const auto start = std::chrono::steady_clock::now();
    const detail::ParsedRequest req = detail::parse_request(line);
    const std::string trace_id = detail::response_trace_id(req, line_no, line);
    detail::Outcome outcome;
    if (req.cls == detail::RequestClass::kImmediate) {
      outcome = detail::ErrorReply{"bad_request", req.error,
                                   /*retryable=*/false};
      ++stats.errors;
    } else {
      obs::Tracer::Span req_span = obs::Tracer::span_if(
          tracer, "service.request",
          tracer != nullptr ? "{\"trace_id\": " +
                                  detail::json_quoted(trace_id) +
                                  ", \"op\": \"" + req.op + "\"}"
                            : std::string());
      detail::Executed done = detail::guarded_execute(
          session, req, /*fast_reads=*/false, tracer);
      if (done.failed) ++stats.failures;
      if (!detail::outcome_ok(done.outcome)) ++stats.errors;
      outcome = std::move(done.outcome);
    }
    const double us = detail::micros_since(start);
    latency.observe(us);

    response.clear();
    detail::append_response(response, stats.requests + 1, line_no, req,
                            trace_id, outcome, us);
    response += '\n';
    out << response;
    ++stats.requests;
  }
  out.flush();
  return stats;
}

}  // namespace rta::service
