// JSONL request stream for an AdmissionSession: one JSON object per input
// line, one JSON response object per output line (same order).
//
// Requests (docs/api.md has the full reference):
//
//   {"op": "admit",   "job": { ...job object... }}
//   {"op": "what_if", "job": { ...job object... }}
//   {"op": "remove",  "job_id": 3}          // or "name": "telemetry"
//   {"op": "query"}                          // committed-system summary
//   {"op": "what_if_region", "target": "telemetry",
//    "axes": [{"param": "exec_scale", "lo": 1, "hi": 8}]}
//                                            // feasibility boundary search
//
// Job objects follow io/system_json.hpp ("name", "deadline", "chain",
// "arrivals"). When no hop carries an explicit "priority", the service
// assigns lowest priorities (service::assign_lowest_priorities) -- the
// newcomer-must-not-disturb policy.
//
// Responses echo the request index and op, the session Decision fields, and
// the request's wall-clock latency in microseconds. Blank lines and lines
// starting with '#' are skipped. A malformed request, an unknown op, or a
// request whose execution throws produces an {"ok": false, "error": ...}
// response for that line and processing continues -- one bad request never
// terminates the stream.
//
// Two drivers share this interface. Both take every per-request step --
// line skipping, envelope, guarded execution -- from the request codec
// (request_codec.hpp), so their responses are byte-identical modulo
// latency_us:
//   - run_request_stream(session, in, out): the sequential reference
//     runner; every request executes one at a time on the primary session
//     through the general what-if path (fast_reads = false), so it stays
//     the differential reference for the fast path.
//   - run_request_stream(session, in, out, options): the batching
//     RequestScheduler (request_scheduler.hpp) with read coalescing,
//     backpressure, and per-request timeouts. The sharded front end
//     (sharded_scheduler.hpp) runs one per tenant with the same options.
#pragma once

#include <iosfwd>

#include "service/admission_session.hpp"

namespace rta::service {

struct RunnerStats {
  int requests = 0;   ///< responses emitted (malformed lines included)
  int errors = 0;     ///< responses with ok == false (supersets the below)
  int failures = 0;   ///< requests whose execution threw (isolated per line)
  int timeouts = 0;   ///< requests expired before execution (scheduler only)
  int rejected = 0;   ///< requests shed by backpressure (scheduler only)
  int coalesced = 0;  ///< identical reads answered from one execution
                      ///< (scheduler only; responses unaffected)
};

/// Scheduler knobs for the 4-argument run_request_stream overload.
struct StreamOptions {
  /// No effect: every read batch runs on the one session. Kept only so that
  /// perfbench/closed_loop.cpp, which sets it, still compiles; remove both
  /// together in the next change to perfbench.
  int parallel_reads = 1;
  /// Upper bound on requests buffered in the current same-class batch; a
  /// request arriving at a full batch is rejected with the retryable error
  /// code "overloaded". 0 disables backpressure. The one backpressure rule:
  /// the sharded front end applies it per tenant.
  int max_inflight = 0;
  /// Requests older than this (arrival to execution start) are answered
  /// with the retryable error code "timeout" without running. 0 disables
  /// timeouts. Wall-clock based, so responses are not deterministic under
  /// timeouts.
  double request_timeout_ms = 0.0;
};

/// Drive `session` with the JSONL stream `in`, writing responses to `out`,
/// one request at a time. Per-request latency is recorded in the
/// "service.request_us" histogram when the session was configured with a
/// MetricsRegistry.
RunnerStats run_request_stream(AdmissionSession& session, std::istream& in,
                               std::ostream& out);

/// Scheduler-driven variant: classifies requests read-only vs mutating,
/// batches consecutive requests of one class, coalesces duplicate reads
/// (singleflight), and applies the backpressure / timeout policy in
/// `options`.
/// Responses are emitted in request order and are byte-identical (modulo
/// latency_us) to the sequential runner for any stream when timeouts and
/// backpressure are disabled. Defined in request_scheduler.cpp.
RunnerStats run_request_stream(AdmissionSession& session, std::istream& in,
                               std::ostream& out,
                               const StreamOptions& options);

}  // namespace rta::service
