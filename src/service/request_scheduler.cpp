#include "service/request_scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/trace_context.hpp"
#include "util/time.hpp"

namespace rta::service {

namespace {

double micros_since(std::chrono::steady_clock::time_point since) {
  const std::chrono::duration<double, std::micro> us =
      std::chrono::steady_clock::now() - since;
  return us.count();
}

}  // namespace

RequestScheduler::RequestScheduler(AdmissionSession& session,
                                   std::ostream& out, StreamOptions options)
    : session_(session), out_(out), options_(options) {
  tracer_ = session.config().analysis.observer.tracer;
  obs::MetricsRegistry* metrics = session.config().analysis.observer.metrics;
  if (metrics != nullptr) {
    const std::vector<double>& buckets =
        obs::MetricsRegistry::latency_buckets_us();
    request_us_ = metrics->histogram("service.request_us", buckets);
    read_us_ = metrics->histogram("service.read_us", buckets);
    mutate_us_ = metrics->histogram("service.mutate_us", buckets);
    queue_depth_ = metrics->gauge("service.queue_depth_max");
    rejected_counter_ = metrics->counter("service.rejected");
    timeout_counter_ = metrics->counter("service.timeouts");
    failure_counter_ = metrics->counter("service.failures");
    coalesced_counter_ = metrics->counter("service.coalesced");
  }
}

RequestScheduler::~RequestScheduler() = default;

void RequestScheduler::complete_at_submit(Pending& p) {
  p.latency_us = micros_since(p.arrival);
  pending_.push_back(std::move(p));
}

RequestScheduler::Pending RequestScheduler::make_pending(
    const std::string& line, detail::ParsedRequest req) {
  ++line_no_;
  Pending p;
  p.arrival = std::chrono::steady_clock::now();
  p.raw = line;
  p.req = std::move(req);
  ++submitted_;
  p.response.set("schema_version", 2);
  p.response.set("request", submitted_);
  p.response.set("line", line_no_);
  if (!p.req.op.empty()) p.response.set("op", p.req.op);
  if (p.req.has_tenant) p.response.set("tenant", p.req.tenant);
  p.trace_id = p.req.trace_id.empty() ? obs::mint_trace_id(line_no_, line)
                                      : p.req.trace_id;
  p.response.set("trace_id", p.trace_id);
  return p;
}

void RequestScheduler::submit_line(const std::string& line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') {
    if (finished_) {
      throw std::logic_error("RequestScheduler: submit_line after finish()");
    }
    ++line_no_;
    return;
  }
  submit_parsed(line, detail::parse_request(line));
}

void RequestScheduler::submit_parsed(const std::string& line,
                                     detail::ParsedRequest req) {
  if (finished_) {
    throw std::logic_error("RequestScheduler: submit_line after finish()");
  }
  Pending p = make_pending(line, std::move(req));

  if (p.req.cls == detail::RequestClass::kImmediate) {
    // Parse-time errors never touch a session: buffered in place so the
    // response order matches arrival order, outside the batch depth.
    detail::set_error(p.response, "bad_request", p.req.error,
                      /*retryable=*/false);
    ++stats_.errors;
    complete_at_submit(p);
    return;
  }

  // Class boundary: reads must observe every earlier mutation and vice
  // versa, so a class change drains the current batch first.
  if (inflight_ > 0 && p.req.cls != batch_class_) flush();

  if (options_.max_inflight > 0 && inflight_ >= options_.max_inflight) {
    detail::set_error(p.response, "overloaded",
                      "server busy: max_inflight exceeded",
                      /*retryable=*/true);
    ++stats_.errors;
    ++stats_.rejected;
    rejected_counter_.inc();
    complete_at_submit(p);
    return;
  }

  p.executable = true;
  batch_class_ = p.req.cls;
  pending_.push_back(std::move(p));
  ++inflight_;
  queue_depth_.record_max(static_cast<double>(inflight_));
}

void RequestScheduler::reject_parsed(const std::string& line,
                                     detail::ParsedRequest req,
                                     const std::string& message) {
  if (finished_) {
    throw std::logic_error("RequestScheduler: submit_line after finish()");
  }
  Pending p = make_pending(line, std::move(req));
  if (p.req.cls == detail::RequestClass::kImmediate) {
    // A line the reference run would reject at parse time answers its parse
    // error no matter what the front end's queues looked like.
    detail::set_error(p.response, "bad_request", p.req.error,
                      /*retryable=*/false);
  } else {
    detail::set_error(p.response, "overloaded", message,
                      /*retryable=*/true);
    ++stats_.rejected;
    rejected_counter_.inc();
  }
  ++stats_.errors;
  complete_at_submit(p);
}

obs::Tracer::Span RequestScheduler::request_span(const Pending& p) {
  // The span tree correlation point: the per-request span carries the
  // trace_id the response echoes, and the queue wait (arrival -> execution
  // start) rides along as args.
  if (tracer_ == nullptr) return {};
  char queue_args[64];
  std::snprintf(queue_args, sizeof(queue_args), ", \"queue_us\": %.3f}",
                micros_since(p.arrival));
  return tracer_->span("service.request",
                       "{\"trace_id\": " + json::Value(p.trace_id).dump() +
                           ", \"op\": \"" + p.req.op + "\"" + queue_args);
}

bool RequestScheduler::expire_if_stale(Pending& p) {
  // Decided at batch-execution start, before any id simulation or
  // execution: an expired request never runs in the sequential reference,
  // so it must neither consume a pre-assigned job id nor touch the session.
  if (options_.request_timeout_ms <= 0.0 ||
      micros_since(p.arrival) <= ms_to_us(options_.request_timeout_ms)) {
    return false;
  }
  obs::Tracer::Span req_span = request_span(p);
  detail::set_error(p.response, "timeout",
                    "request timed out before execution",
                    /*retryable=*/true);
  p.timed_out = true;
  p.latency_us = micros_since(p.arrival);
  req_span.annotate("{\"timeout\": true}");
  return true;
}

void RequestScheduler::execute_one(Pending& p) {
  obs::Tracer::Span req_span = request_span(p);
  try {
    obs::Tracer::Span class_span = obs::Tracer::span_if(
        tracer_, p.req.cls == detail::RequestClass::kMutate ? "service.mutate"
                                                            : "service.read");
    p.ok = detail::execute_request(session_, p.req, p.response,
                                   /*fast_reads=*/true);
  } catch (const std::exception& e) {
    detail::set_error(p.response, "internal",
                      std::string("request failed: ") + e.what(),
                      /*retryable=*/false);
    p.failed = true;
  } catch (...) {
    detail::set_error(p.response, "internal",
                      "request failed: unknown exception",
                      /*retryable=*/false);
    p.failed = true;
  }
  p.latency_us = micros_since(p.arrival);
}

void RequestScheduler::execute_mutations() {
  for (Pending& p : pending_) {
    if (p.executable && !expire_if_stale(p)) execute_one(p);
  }
}

void RequestScheduler::execute_reads() {
  // Simulate the stable-id counter over the batch in request order: a
  // sequential what_if consumes an id (System::add_job bumps the counter;
  // the rollback does not rewind it), so a coalesced duplicate must echo
  // the id its own sequential execution would have drawn, and the session
  // must land on the same counter value. Expired entries are excluded
  // first (expire_if_stale): they never execute, so they never consume an
  // id.
  std::uint64_t cur = session_.peek_next_job_id();
  std::vector<std::size_t> exec;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Pending& p = pending_[i];
    if (!p.executable) continue;
    if (expire_if_stale(p)) continue;
    exec.push_back(i);
    if (p.req.op != "what_if") continue;  // query consumes nothing
    Job& job = p.req.job;
    if (job.id == 0) {
      job.id = cur++;
      p.auto_id = true;
    } else if (session_.system().job_index_by_id(job.id) < 0) {
      cur = std::max(cur, job.id + 1);
    }
    // A duplicate explicit id is rejected before add_job: consumes nothing.
  }

  // Coalesce byte-identical request lines: against one committed snapshot
  // they are repeated pure-function calls, so only the first instance runs
  // and the rest copy its answer (id-counter consumption was already
  // simulated per instance above). Disabled under timeouts, where each
  // instance expires on its own wall clock.
  std::vector<std::size_t> primaries;
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;  // dup, prim
  if (options_.request_timeout_ms <= 0.0) {
    std::unordered_map<std::string, std::size_t> first_instance;
    first_instance.reserve(exec.size());
    for (std::size_t idx : exec) {
      const auto [it, inserted] =
          first_instance.emplace(pending_[idx].raw, idx);
      if (inserted) {
        primaries.push_back(idx);
      } else {
        duplicates.emplace_back(idx, it->second);
      }
    }
  } else {
    primaries = exec;
  }

  for (const std::size_t idx : primaries) execute_one(pending_[idx]);

  // Resolve duplicates from their primaries, re-stamping the per-request
  // echo fields. A simulated (auto) job id is the only decision field that
  // differs between identical lines; explicit-id instances answer
  // identically, patch and all.
  for (const auto& [dup, prim] : duplicates) {
    Pending& d = pending_[dup];
    const Pending& p = pending_[prim];
    const double request_no = d.response.find("request")->as_number();
    const double input_line = d.response.find("line")->as_number();
    d.response = p.response;
    d.response.set("request", request_no);
    d.response.set("line", input_line);
    d.response.set("trace_id", d.trace_id);
    if (d.auto_id && d.response.find("job_id") != nullptr) {
      d.response.set("job_id", static_cast<double>(d.req.job.id));
    }
    d.ok = p.ok;
    d.failed = p.failed;
    d.latency_us = micros_since(d.arrival);
    ++stats_.coalesced;
    coalesced_counter_.inc();
    obs::Tracer::instant_if(
        tracer_, "service.coalesced",
        tracer_ != nullptr
            ? "{\"trace_id\": " + json::Value(d.trace_id).dump() +
                  ", \"primary\": " + json::Value(p.trace_id).dump() + "}"
            : std::string());
  }

  session_.set_next_job_id(cur);
}

void RequestScheduler::flush() {
  if (inflight_ > 0) {
    if (batch_class_ == detail::RequestClass::kMutate) {
      execute_mutations();
    } else {
      execute_reads();
    }
  }
  for (Pending& p : pending_) {
    if (p.executable) {
      if (!p.ok) ++stats_.errors;
      if (p.failed) {
        ++stats_.failures;
        failure_counter_.inc();
      }
      if (p.timed_out) {
        ++stats_.timeouts;
        timeout_counter_.inc();
      }
      const obs::Histogram& per_class =
          batch_class_ == detail::RequestClass::kMutate ? mutate_us_
                                                        : read_us_;
      per_class.observe(p.latency_us);
    }
    request_us_.observe(p.latency_us);
    p.response.set("latency_us", p.latency_us);
    out_ << p.response.dump() << "\n";
    ++stats_.requests;
  }
  pending_.clear();
  inflight_ = 0;
}

void RequestScheduler::finish() {
  if (finished_) return;
  flush();
  out_.flush();
  finished_ = true;
}

RunnerStats run_request_stream(AdmissionSession& session, std::istream& in,
                               std::ostream& out,
                               const StreamOptions& options) {
  RequestScheduler scheduler(session, out, options);
  std::string line;
  while (std::getline(in, line)) scheduler.submit_line(line);
  scheduler.finish();
  return scheduler.stats();
}

}  // namespace rta::service
