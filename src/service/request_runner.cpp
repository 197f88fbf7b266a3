#include "service/request_runner.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <string>

#include "io/json.hpp"
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
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (detail::is_skipped_line(line)) continue;

    const auto start = std::chrono::steady_clock::now();
    const detail::ParsedRequest req = detail::parse_request(line);
    json::Value response;
    const std::string trace_id = detail::open_envelope(
        response, stats.requests + 1, line_no, req, line);
    if (req.cls == detail::RequestClass::kImmediate) {
      detail::set_error(response, "bad_request", req.error,
                        /*retryable=*/false);
      ++stats.errors;
    } else {
      obs::Tracer::Span req_span = obs::Tracer::span_if(
          tracer, "service.request",
          tracer != nullptr
              ? "{\"trace_id\": " + json::Value(trace_id).dump() +
                    ", \"op\": \"" + req.op + "\"}"
              : std::string());
      const detail::Executed done = detail::guarded_execute(
          session, req, response, /*fast_reads=*/false, tracer);
      if (done.failed) ++stats.failures;
      if (!done.ok) ++stats.errors;
    }
    const double us = detail::micros_since(start);
    latency.observe(us);
    response.set("latency_us", us);

    out << response.dump() << "\n";
    ++stats.requests;
  }
  out.flush();
  return stats;
}

}  // namespace rta::service
