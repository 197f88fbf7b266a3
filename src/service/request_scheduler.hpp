// Batching request scheduler for the JSONL admission service.
//
// Requests are classified by concurrency class (request_codec.hpp):
// read-only (what_if, query) vs mutating (admit, remove). The scheduler
// buffers consecutive requests of one class and executes the buffer as a
// batch at each class boundary (a barrier), at end of input, or when
// backpressure sheds the overflow. Every batch runs in request order on the
// one session, on the calling thread:
//
//   - A read batch answers through the session's fast what-if path where
//     it applies. Within the batch, byte-identical request lines are
//     coalesced (singleflight): the analysis runs once and every duplicate
//     receives a copy of the answer, with its own request/line echo and --
//     for auto-assigned ids -- its own simulated job_id. Against one
//     committed state identical reads are pure-function calls, so this is
//     exact, not approximate. Coalescing reaches only within one batch,
//     skips the duplicate's execution, and covers every read (query,
//     what_if_region and general-path what_ifs too). A polling client
//     re-probing a pending candidate in later batches is answered by the
//     session's what-if memo instead (AdmissionSession::read_what_if),
//     which holds fast-path answers until the next commit.
//     Coalescing is disabled while request_timeout_ms is set, because each
//     instance's expiry is wall-clock-specific.
//   - A mutation batch executes in order, one request at a time.
//
// Ordering guarantees: responses are emitted in request order, and every
// read observes the committed state as of the last preceding mutation (the
// class barrier). That is exactly the sequential runner's data flow, so for
// any stream -- with timeouts and backpressure disabled -- the scheduler's
// responses are byte-identical to run_request_stream(session, in, out)
// modulo the latency_us field (tests/test_request_scheduler.cpp drives
// randomized differential streams).
//
// The stable-id counter is simulated over a read batch: a what_if consumes
// a job id exactly like sequential execution would (auto ids are
// pre-assigned in request order, explicit non-duplicate ids advance the
// counter, duplicates consume nothing), and the session's counter is set
// to the simulated value after the batch -- so the job_id a coalesced
// duplicate echoes, and every later admit, match the sequential runner bit
// for bit.
//
// Failure isolation: a request whose execution throws yields an
// "internal" error ("request failed: ...") for its line; the stream always
// continues. Backpressure (max_inflight) rejects with the retryable code
// "overloaded"; per-request timeouts (request_timeout_ms) answer the
// retryable code "timeout" without executing. Expiry is decided once per
// batch, before the job-id counter simulation, so a request that never
// executes (shed or timed out) never consumes an id -- later job_ids match
// the sequential runner on the surviving lines bit for bit. docs/api.md
// documents the full response schema.
//
// Lifecycle: finish() drains and seals the scheduler; it is idempotent, and
// submitting after it throws std::logic_error (the defined error for the
// use-after-close programming bug -- silently emitting past the drained
// stream end would interleave with whatever the caller did next).
#pragma once

#include <chrono>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission_session.hpp"
#include "service/request_codec.hpp"
#include "service/request_runner.hpp"

namespace rta::service {

class RequestScheduler {
 public:
  /// Binds to `session` (primary) and `out`. When the session carries a
  /// MetricsRegistry, the scheduler records histograms service.request_us /
  /// service.read_us / service.mutate_us, gauge service.queue_depth_max
  /// (high-water batch depth since start; docs/observability.md), and
  /// counters service.rejected / service.timeouts / service.failures /
  /// service.coalesced.
  RequestScheduler(AdmissionSession& session, std::ostream& out,
                   StreamOptions options = {});
  /// Same, but each finished response line (without its newline) is
  /// appended to `ready` instead of written to a stream: the sharded front
  /// end's per-tenant ready queue.
  RequestScheduler(AdmissionSession& session, std::deque<std::string>& ready,
                   StreamOptions options = {});
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Feed one input line (blank and '#' lines are skipped). May trigger a
  /// batch flush (class boundary) and emit buffered responses. Throws
  /// std::logic_error after finish().
  void submit_line(const std::string& line);

  /// submit_line for a caller that already parsed the line (the sharded
  /// front end routes on the parse result); `line` must not be blank or a
  /// comment. Behavior is byte-identical to submit_line(line).
  void submit_parsed(const std::string& line, detail::ParsedRequest req);

  /// Execute and emit everything buffered; the stream stays open for more
  /// submissions. Responses are batch-boundary independent, so callers may
  /// force a flush at any point without changing a single byte.
  void flush();

  /// flush(), then flush the output stream and seal the scheduler.
  /// Idempotent: later finish() calls are no-ops and later submissions
  /// throw.
  void finish();

  [[nodiscard]] const RunnerStats& stats() const { return stats_; }

 private:
  struct Pending {
    detail::ParsedRequest req;
    std::string raw;       ///< the input line, the read-coalescing identity key
    std::string trace_id;  ///< propagated or minted at submit (deterministic)
    int request_no = 0;    ///< envelope numbering, fixed at submit
    int line_no = 0;
    std::chrono::steady_clock::time_point arrival;
    bool executable = false;  ///< false: outcome completed at submit time
    bool auto_id = false;     ///< job_id was simulated, not client-supplied
    // Outcome of this entry; rendered once, at flush.
    detail::Outcome outcome;
    bool failed = false;
    bool timed_out = false;
    double latency_us = 0.0;
  };

  /// The shared part of both constructors; the caller binds the sink.
  RequestScheduler(AdmissionSession& session, StreamOptions options);

  void execute_mutations();
  void execute_reads();
  void execute_one(Pending& p);
  void complete_at_submit(Pending& p, detail::ErrorReply error);
  void emit(const Pending& p, std::string& line);
  [[nodiscard]] Pending make_pending(const std::string& line,
                                     detail::ParsedRequest req);
  [[nodiscard]] obs::Tracer::Span request_span(const Pending& p);
  bool expire_if_stale(Pending& p);

  AdmissionSession& session_;
  std::ostream* out_ = nullptr;              ///< the line sink: a stream ...
  std::deque<std::string>* ready_ = nullptr;  ///< ... or a ready queue
  StreamOptions options_;

  std::vector<Pending> pending_;  ///< current batch + interleaved immediates
  int inflight_ = 0;              ///< executable entries in pending_
  detail::RequestClass batch_class_ = detail::RequestClass::kRead;

  int line_no_ = 0;
  int submitted_ = 0;  ///< responses owed (skipped lines excluded)
  bool finished_ = false;
  RunnerStats stats_;

  obs::Tracer* tracer_ = nullptr;  ///< per-request span tree (may be null)
  obs::Histogram request_us_;
  obs::Histogram read_us_;
  obs::Histogram mutate_us_;
  obs::Gauge queue_depth_;
  obs::Counter rejected_counter_;
  obs::Counter timeout_counter_;
  obs::Counter failure_counter_;
  obs::Counter coalesced_counter_;
};

}  // namespace rta::service
