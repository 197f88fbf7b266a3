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
//     exact, not approximate; it is what makes polling workloads (clients
//     re-probing pending candidates between reconfigurations) cheap.
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

  /// Buffer a deterministic `overloaded` rejection for `line` without
  /// executing it: the sharded front end's cross-tenant backpressure, which
  /// must consume this scheduler's request/line numbering exactly like an
  /// accepted line would. A parse-error line degrades to its normal
  /// bad_request response. Throws std::logic_error after finish().
  void reject_parsed(const std::string& line, detail::ParsedRequest req,
                     const std::string& message);

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
    json::Value response;
    std::string raw;       ///< the input line, the read-coalescing identity key
    std::string trace_id;  ///< propagated or minted at submit (deterministic)
    std::chrono::steady_clock::time_point arrival;
    bool executable = false;  ///< false: response completed at submit time
    bool auto_id = false;     ///< job_id was simulated, not client-supplied
    // Outcome of executing this entry.
    bool ok = false;
    bool failed = false;
    bool timed_out = false;
    double latency_us = 0.0;
  };

  void execute_mutations();
  void execute_reads();
  void execute_one(Pending& p);
  void complete_at_submit(Pending& p);
  [[nodiscard]] Pending make_pending(const std::string& line,
                                     detail::ParsedRequest req);
  [[nodiscard]] obs::Tracer::Span request_span(const Pending& p);
  bool expire_if_stale(Pending& p);

  AdmissionSession& session_;
  std::ostream& out_;
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
