// Shared per-request steps and the one response writer of the JSONL
// service.
//
// Every request-stream driver -- the sequential reference runner
// (request_runner.cpp), the batching RequestScheduler
// (request_scheduler.cpp) and the sharded front end's untenanted bucket
// (sharded_scheduler.cpp) -- goes through these helpers: skip blank and '#'
// lines, parse, stamp the trace_id (propagated or minted), execute inside
// the one failure isolation, and render the response line. Execution
// returns data (an Outcome), not a JSON tree; append_response writes the
// line once, field by field, when the driver emits it. So a given request
// produces byte-identical lines (latency_us aside) no matter which driver,
// and at any parallelism.
//
// Field-order contract (docs/api.md). Every response line is
//   schema_version, request, line, op (when the line had one), tenant (when
//   routed by one), trace_id, then the body, then latency_us.
// The bodies, each in its one order:
//   - decision (admit, what_if, remove): ok, error (when the session
//     refused), admitted, committed, incremental, job_id, dirty_subjobs,
//     total_subjobs; when ok also schedulable, max_wcrt, horizon and, when
//     available, explain {wcrt, deadline, dominant_hop, doublings,
//     hops [{hop, processor, bound}]};
//   - query: ok, jobs, schedulable, max_wcrt, horizon;
//   - error: ok (false), error {code, message, retryable};
//   - what_if_region: ok, region (region_result_value);
//   - stats: ok, then the members of stats_payload.
// Only the what_if_region and stats payloads are still json::Value trees;
// they are appended inside the writer's envelope. Numbers go through
// rta::append_double and strings through rta::append_json_escaped, the
// bytes json::Value::dump writes, and an unbounded time is the string
// "inf". tests/test_response_writer.cpp checks the writer against a
// json::Value tree built field by field; the tests/golden/ streams pin the
// bytes end to end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "io/json.hpp"
#include "obs/trace.hpp"
#include "service/admission_session.hpp"
#include "service/region.hpp"

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
  /// line failed to parse); response_trace_id then mints one.
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

/// A query's committed-system summary.
struct QuerySummary {
  int jobs = 0;
  bool schedulable = false;
  Time max_wcrt = 0.0;
  Time horizon = 0.0;
};

/// A failure body. Stable machine-readable codes of the v2 envelope
/// (docs/api.md): bad_request, not_found, conflict, invalid_argument,
/// unavailable, overloaded, timeout, internal. Exactly overloaded and
/// timeout are retryable.
struct ErrorReply {
  const char* code = "internal";
  std::string message;
  bool retryable = false;
};

/// A what_if_region answer: rendered as "region": <payload>.
struct RegionReply {
  json::Value region;
};

/// A stats answer: its members are rendered after "ok".
struct StatsReply {
  json::Value payload;
};

/// What one request produced: the data its response body is rendered from.
using Outcome =
    std::variant<ReadDecision, QuerySummary, ErrorReply, RegionReply,
                 StatsReply>;

/// The response's ok flag.
[[nodiscard]] bool outcome_ok(const Outcome& outcome);

/// The trace id a response echoes: the request's own, or minted from
/// `line_no` and the raw `line` (obs/trace_context.hpp), so minted ids are
/// byte-identical across the drivers.
[[nodiscard]] std::string response_trace_id(const ParsedRequest& req,
                                            int line_no,
                                            const std::string& line);

/// `s` as a quoted JSON string literal (span args).
[[nodiscard]] std::string json_quoted(std::string_view s);

/// Append one response line (no newline) to `out`: the v2 envelope from
/// `request_no`, `line_no`, `req`'s op and tenant and `trace_id`, then
/// `outcome`'s body, then latency_us -- the field order in the header
/// comment. The one emitter every driver shares.
void append_response(std::string& out, int request_no, int line_no,
                     const ParsedRequest& req, const std::string& trace_id,
                     const Outcome& outcome, double latency_us);

/// Execute one executable (non-immediate) request against `session`.
/// `fast_reads` routes what_if through AdmissionSession::read_what_if
/// (aggregate-only fast path; same bytes). May throw; drivers call it
/// through guarded_execute.
[[nodiscard]] Outcome execute_request(AdmissionSession& session,
                                      const ParsedRequest& req,
                                      bool fast_reads);

struct Executed {
  Outcome outcome;
  bool failed = false;  ///< execution threw (answered "internal")
};

/// execute_request inside the failure isolation every driver shares: a
/// throwing request answers a whole "internal" error body ("request failed:
/// ...") for its line and the stream continues. Opens the service.read /
/// service.mutate span on `tracer` (may be null) around the execution.
[[nodiscard]] Executed guarded_execute(AdmissionSession& session,
                                       const ParsedRequest& req,
                                       bool fast_reads, obs::Tracer* tracer);

/// Wall-clock microseconds elapsed since `since` (the latency_us field).
[[nodiscard]] double micros_since(std::chrono::steady_clock::time_point since);

}  // namespace rta::service::detail
