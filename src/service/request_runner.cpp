#include "service/request_runner.hpp"

#include <chrono>
#include <istream>
#include <ostream>
#include <string>

#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
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
    // Skip blanks and comment lines without a response.
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;

    json::Value response;
    response.set("schema_version", 2);
    response.set("request", stats.requests + 1);
    response.set("line", line_no);

    const auto start = std::chrono::steady_clock::now();
    const detail::ParsedRequest req = detail::parse_request(line);
    if (!req.op.empty()) response.set("op", req.op);
    if (req.has_tenant) response.set("tenant", req.tenant);
    const std::string trace_id = req.trace_id.empty()
                                     ? obs::mint_trace_id(line_no, line)
                                     : req.trace_id;
    response.set("trace_id", trace_id);
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
      // Fail-safe isolation: a throwing request yields an error response
      // for its line, never a terminated stream.
      bool ok = false;
      try {
        obs::Tracer::Span class_span = obs::Tracer::span_if(
            tracer, req.cls == detail::RequestClass::kMutate
                        ? "service.mutate"
                        : "service.read");
        ok = detail::execute_request(session, req, response,
                                     /*fast_reads=*/false);
      } catch (const std::exception& e) {
        detail::set_error(response, "internal",
                          std::string("request failed: ") + e.what(),
                          /*retryable=*/false);
        ++stats.failures;
      } catch (...) {
        detail::set_error(response, "internal",
                          "request failed: unknown exception",
                          /*retryable=*/false);
        ++stats.failures;
      }
      if (!ok) ++stats.errors;
    }
    const std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - start;
    latency.observe(us.count());
    response.set("latency_us", us.count());

    out << response.dump() << "\n";
    ++stats.requests;
  }
  out.flush();
  return stats;
}

}  // namespace rta::service
