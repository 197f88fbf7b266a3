// Shared request parsing / response serialization for the JSONL service.
//
// Both request-stream drivers -- the sequential reference runner
// (request_runner.cpp) and the batching RequestScheduler
// (request_scheduler.cpp) -- go through these helpers, so a given request
// produces byte-identical response objects (latency fields aside) no matter
// which driver, and at any parallelism. That single emission path is what
// the scheduler's differential test leans on.
#pragma once

#include <cstdint>
#include <string>

#include "service/region.hpp"
#include "io/json.hpp"
#include "service/admission_session.hpp"

namespace rta::service::detail {

/// Concurrency class of a request: reads are side-effect-free and may run
/// against a committed-state snapshot; mutations must serialize on the
/// primary session; immediates carry a parse-time error and never touch a
/// session at all.
enum class RequestClass {
  kImmediate,
  kRead,    ///< what_if, what_if_region, query, stats
  kMutate,  ///< admit, remove
};

/// One parsed JSONL request line, session-independent.
struct ParsedRequest {
  RequestClass cls = RequestClass::kImmediate;
  std::string op;     ///< empty when the line had no usable string "op"
  std::string error;  ///< set iff cls == kImmediate

  /// Propagated trace context: a non-empty string "trace_id" field on the
  /// request, echoed verbatim into the response. Empty when absent (or the
  /// line failed to parse); the driver then mints one deterministically
  /// (obs/trace_context.hpp), so minted ids are byte-identical across the
  /// sequential runner and the scheduler.
  std::string trace_id;

  /// Optional routing annotation: a non-empty string "tenant" field on the
  /// request, echoed verbatim into the response by every driver. The
  /// single-session drivers treat it as an annotation only; the sharded
  /// front end (sharded_scheduler.hpp) routes on it. A present-but-invalid
  /// tenant (non-string or empty) is a parse-time error, so both drivers
  /// reject it identically.
  std::string tenant;
  bool has_tenant = false;

  // admit / what_if payload.
  Job job;
  bool saw_priority = false;

  // remove payload: by stable id, or by name (resolved against the session
  // at execution time, like the sequential runner always has).
  bool remove_by_id = false;
  std::uint64_t remove_id = 0;
  std::string remove_name;

  // what_if_region payload (service/region.hpp); range/target validation
  // happens at execution time against the committed system.
  RegionQuery region;
};

/// Parse and classify one request line. Errors detectable without a session
/// (malformed JSON, missing/unknown op, bad job object) come back as
/// kImmediate with the exact error text the sequential runner emits.
[[nodiscard]] ParsedRequest parse_request(const std::string& line);

/// JSON encoding for possibly-unbounded times (the "inf" convention).
[[nodiscard]] json::Value time_value(Time t);

/// Stable machine-readable failure codes of the v2 envelope (docs/api.md):
/// bad_request, not_found, conflict, invalid_argument, unavailable,
/// overloaded, timeout, internal. Exactly overloaded and timeout are
/// retryable.
///
/// Write `response`'s failure fields:
///   "ok": false, "error": {"code", "message", "retryable"}
void set_error(json::Value& response, const char* code,
               const std::string& message, bool retryable);

/// Serialize the aggregate decision fields into `response` -- the one field
/// order every execution path shares.
void read_decision_into(json::Value& response, const ReadDecision& rd);

/// Execute one executable (non-immediate) request against `session` and
/// fill `response`'s decision fields. `fast_reads` routes what_if through
/// AdmissionSession::read_what_if (aggregate-only fast path; same bytes).
/// Returns the response's ok flag. May throw -- callers isolate.
bool execute_request(AdmissionSession& session, const ParsedRequest& req,
                     json::Value& response, bool fast_reads);

}  // namespace rta::service::detail
