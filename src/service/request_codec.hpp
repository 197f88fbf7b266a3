// Shared per-request steps for the JSONL service.
//
// Every request-stream driver -- the sequential reference runner
// (request_runner.cpp), the batching RequestScheduler
// (request_scheduler.cpp) and the sharded front end's untenanted bucket
// (sharded_scheduler.cpp) -- goes through these helpers: skip blank and '#'
// lines, parse, open the v2 envelope (propagating or minting the trace_id),
// execute inside the one failure isolation, and serialize the decision. So
// a given request produces byte-identical response objects (latency fields
// aside) no matter which driver, and at any parallelism. That single
// emission path is what the scheduler's differential test leans on.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "service/region.hpp"
#include "io/json.hpp"
#include "obs/trace.hpp"
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
  /// line failed to parse); open_envelope then mints one deterministically
  /// (obs/trace_context.hpp), so minted ids are byte-identical across the
  /// drivers.
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

/// True for a line no driver answers: blank (spaces, tabs, CR) or a '#'
/// comment. Skipped lines still count toward the input line numbers.
[[nodiscard]] bool is_skipped_line(const std::string& line);

/// Parse and classify one request line. Errors detectable without a session
/// (malformed JSON, missing/unknown op, bad job object) come back as
/// kImmediate with the exact error text the sequential runner emits.
[[nodiscard]] ParsedRequest parse_request(const std::string& line);

/// Stable machine-readable failure codes of the v2 envelope (docs/api.md):
/// bad_request, not_found, conflict, invalid_argument, unavailable,
/// overloaded, timeout, internal. Exactly overloaded and timeout are
/// retryable.
///
/// Write `response`'s failure fields:
///   "ok": false, "error": {"code", "message", "retryable"}
void set_error(json::Value& response, const char* code,
               const std::string& message, bool retryable);

/// Open `response` with the v2 envelope fields every answer starts with, in
/// their one order: schema_version, request, line, op (when the line had
/// one), tenant (when routed by one), trace_id. The trace id is the
/// request's own, or minted from `line_no` and the raw `line`. Returns the
/// trace id.
std::string open_envelope(json::Value& response, int request_no, int line_no,
                          const ParsedRequest& req, const std::string& line);

/// Serialize the aggregate decision fields into `response` -- the one field
/// order every execution path shares.
void read_decision_into(json::Value& response, const ReadDecision& rd);

/// Execute one executable (non-immediate) request against `session` and
/// fill `response`'s decision fields. `fast_reads` routes what_if through
/// AdmissionSession::read_what_if (aggregate-only fast path; same bytes).
/// Returns the response's ok flag. May throw; drivers call it through
/// guarded_execute.
bool execute_request(AdmissionSession& session, const ParsedRequest& req,
                     json::Value& response, bool fast_reads);

struct Executed {
  bool ok = false;      ///< the response's ok flag
  bool failed = false;  ///< execution threw (answered "internal")
};

/// execute_request inside the failure isolation every driver shares: a
/// throwing request answers "internal" ("request failed: ...") for its line
/// and the stream continues. Opens the service.read / service.mutate span
/// on `tracer` (may be null) around the execution.
Executed guarded_execute(AdmissionSession& session, const ParsedRequest& req,
                         json::Value& response, bool fast_reads,
                         obs::Tracer* tracer);

/// Wall-clock microseconds elapsed since `since` (the latency_us field).
[[nodiscard]] double micros_since(std::chrono::steady_clock::time_point since);

}  // namespace rta::service::detail
