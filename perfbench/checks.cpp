#include "checks.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "analysis/bounds.hpp"
#include "io/json.hpp"
#include "service/request_codec.hpp"
#include "service/request_runner.hpp"

namespace perfbench {

namespace {

/// Decisions re-analyzed from scratch per run, spread evenly over it.
constexpr std::size_t kSamples = 24;
constexpr std::size_t kMaxReported = 8;

bool same_time(const rta::json::Value* v, rta::Time t) {
  if (v == nullptr) return false;
  if (v->is_string()) return v->as_string() == "inf" && std::isinf(t);
  // Exact: the response and the fresh analysis must agree bit for bit
  // (%.17g round-trips doubles).
  return v->is_number() && v->as_number() == t;
}

void fail(CheckReport& rep, std::string message) {
  if (rep.failures.size() < kMaxReported) {
    rep.failures.push_back(std::move(message));
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  return lines;
}

/// One stream's checks: its replay through the sequential reference, and
/// its sampled decisions against a fresh BoundsAnalyzer.
CheckReport check_stream(const Workload& wl, const LoopResult& run,
                         const std::vector<std::size_t>& idx,
                         const std::vector<bool>& sampled,
                         const std::string& where) {
  CheckReport rep;
  std::vector<std::string> requests;
  requests.reserve(idx.size());
  std::string input;
  for (const std::size_t i : idx) {
    requests.push_back(wl.line(run.done[i].req));
    input += requests.back();
    input += '\n';
  }
  rta::service::AdmissionSession reference(wl.base(), wl.config());
  std::istringstream in(input);
  std::ostringstream out;
  rta::service::run_request_stream(reference, in, out);
  const std::vector<std::string> responses = split_lines(out.str());
  if (responses.size() != idx.size()) {
    fail(rep, "reference answered " + std::to_string(responses.size()) +
                  " of " + std::to_string(idx.size()) + " requests" + where);
    return rep;
  }

  const rta::BoundsAnalyzer fresh(wl.config().analysis);
  rta::System committed = wl.base();
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const Completed& c = run.done[idx[j]];
    const std::string& line = responses[j];
    ++rep.compared;
    if (stripped_hash(line) != c.hash) {
      fail(rep, "response " + std::to_string(j + 1) + where +
                    " differs from the sequential reference: " +
                    line.substr(0, 160));
    }
    const Reply reply = scan_reply(line);
    if (c.req.op == Op::kRemove && reply.ok) {
      const int k = committed.job_index_by_id(c.req.job_id);
      if (k < 0) {
        fail(rep, "removed job " + std::to_string(c.req.job_id) + where +
                      " was never committed");
      } else {
        committed.remove_job(k);
      }
    }
    if (c.req.op != Op::kWhatIf && c.req.op != Op::kAdmit) continue;

    // The candidate exactly as the codec hands it to the session.
    const rta::service::detail::ParsedRequest parsed =
        rta::service::detail::parse_request(requests[j]);
    rta::Job job = parsed.job;
    if (!parsed.saw_priority) {
      rta::service::assign_lowest_priorities(committed, job);
    }
    job.id = reply.job_id;
    if (sampled[idx[j]]) {
      ++rep.sampled;
      rta::System candidate = committed;
      candidate.add_job(job);
      const rta::AnalysisResult r = fresh.analyze(candidate);
      const rta::json::ParseResult doc = rta::json::parse(line);
      const rta::json::Value* admitted = doc.value.find("admitted");
      const bool verdict_ok = r.ok && admitted != nullptr &&
                              admitted->is_bool() &&
                              admitted->as_bool() == r.all_schedulable();
      if (!doc.ok || !verdict_ok ||
          !same_time(doc.value.find("max_wcrt"), r.max_wcrt())) {
        fail(rep, "decision " + std::to_string(j + 1) + where +
                      " disagrees with a fresh BoundsAnalyzer: " +
                      line.substr(0, 160));
      }
    }
    if (c.req.op == Op::kAdmit && reply.committed) {
      committed.add_job(std::move(job));
    }
  }
  return rep;
}

}  // namespace

CheckReport check_outputs(const Workload& wl, const LoopResult& run) {
  const auto t0 = std::chrono::steady_clock::now();
  CheckReport rep;
  for (const std::string& e : run.envelope_errors) fail(rep, "envelope: " + e);

  // Per-tenant streams (one stream without tenants), in submission order.
  std::vector<std::vector<std::size_t>> buckets(
      static_cast<std::size_t>(std::max(1, wl.tenants())));
  std::size_t decisions = 0;
  for (std::size_t i = 0; i < run.done.size(); ++i) {
    const Completed& c = run.done[i];
    buckets[static_cast<std::size_t>(std::max(0, c.req.tenant))].push_back(i);
    if (c.req.op == Op::kWhatIf || c.req.op == Op::kAdmit) ++decisions;
  }
  const std::size_t stride = std::max<std::size_t>(1, decisions / kSamples);
  std::vector<bool> sampled(run.done.size(), false);
  for (std::size_t i = 0, d = 0; i < run.done.size(); ++i) {
    const Op op = run.done[i].req.op;
    if (op == Op::kWhatIf || op == Op::kAdmit) sampled[i] = d++ % stride == 0;
  }

  // The tenants' streams are independent, so they are checked on as many
  // threads as the callers; the timed part of the run is over by now.
  std::vector<CheckReport> streams(buckets.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t b = next++; b < buckets.size(); b = next++) {
      if (buckets[b].empty()) continue;
      const std::string where =
          wl.tenants() > 0 ? " of " + tenant_name(static_cast<int>(b)) : "";
      try {
        streams[b] = check_stream(wl, run, buckets[b], sampled, where);
      } catch (const std::exception& e) {
        fail(streams[b], "check of the stream" + where + " threw: " + e.what());
      }
    }
  };
  std::vector<std::thread> threads;
  const std::size_t width =
      std::min(buckets.size(), static_cast<std::size_t>(kCallers));
  for (std::size_t t = 1; t < width; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();

  for (const CheckReport& s : streams) {
    rep.compared += s.compared;
    rep.sampled += s.sampled;
    for (const std::string& f : s.failures) fail(rep, f);
  }
  rep.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return rep;
}

}  // namespace perfbench
