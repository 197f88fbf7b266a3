// Differential and policy tests for the batching RequestScheduler
// (service/request_scheduler.hpp). The central contract: with timeouts and
// backpressure disabled, the scheduler's response stream is byte-identical
// (modulo the latency_us field) to the sequential reference runner for ANY
// request stream -- including malformed lines, unknown ops, duplicate ids,
// and invalid removals. On top of that, the shedding and expiry policies
// themselves are exercised directly.
//
// Suites are named Service* so the CI thread-sanitizer job picks them up
// (.github/workflows/ci.yml filters on the Service prefix).
#include <chrono>
#include <cstdint>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/json.hpp"
#include "model/priority.hpp"
#include "service/admission_session.hpp"
#include "service/request_codec.hpp"
#include "service/request_runner.hpp"
#include "service/request_scheduler.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

using service::AdmissionSession;
using service::RequestScheduler;
using service::RunnerStats;
using service::SessionConfig;
using service::StreamOptions;

System make_base(std::uint64_t seed) {
  Rng rng(seed);
  JobShopConfig cfg;
  cfg.stages = 2;
  cfg.processors_per_stage = 2;
  cfg.jobs = 3;
  cfg.utilization = 0.4;
  cfg.window_periods = 4.0;
  cfg.deadline.period_multiple = 3.0;
  cfg.scheduler = SchedulerKind::kSpp;
  System system = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(system);
  return system;
}

SessionConfig make_session_config(const System& base) {
  SessionConfig cfg;
  // Pin the horizon so candidate edits can take the incremental (and fast
  // what-if) paths -- the regime the scheduler is built for.
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  return cfg;
}

/// Serialize a job request, optionally without explicit priorities (so the
/// service's lowest-priority policy kicks in) and without an explicit id.
std::string job_request(const std::string& op, const Job& job,
                        bool with_priority) {
  json::Value req;
  req.set("op", op);
  json::Value jv;
  if (job.id != 0) jv.set("id", static_cast<double>(job.id));
  jv.set("name", job.name);
  jv.set("deadline", job.deadline);
  json::Value::Array chain;
  for (const Subjob& s : job.chain) {
    json::Value hop;
    hop.set("processor", s.processor);
    hop.set("exec", s.exec_time);
    if (with_priority) hop.set("priority", s.priority);
    chain.push_back(std::move(hop));
  }
  jv.set("chain", json::Value(std::move(chain)));
  json::Value::Array arrivals;
  for (Time t : job.arrivals.releases()) arrivals.push_back(json::Value(t));
  jv.set("arrivals", json::Value(std::move(arrivals)));
  req.set("job", std::move(jv));
  return req.dump();
}

Job random_candidate(Rng& rng, const System& base, int serial) {
  Job job;
  job.name = "cand" + std::to_string(serial);
  const int hops = rng.uniform_int(1, 3);
  double exec_total = 0.0;
  for (int h = 0; h < hops; ++h) {
    Subjob s;
    s.processor = rng.uniform_int(0, base.processor_count() - 1);
    s.exec_time = rng.uniform(0.02, 0.1);
    exec_total += s.exec_time;
    job.chain.push_back(s);
  }
  const Time period = rng.uniform(1.0, 4.0);
  job.arrivals = ArrivalSequence::periodic(
      period, std::max<Time>(base.last_release(), 4.0 * period));
  job.deadline = exec_total * rng.uniform(4.0, 20.0) + period;
  return job;
}

/// A randomized stream of ~`n` requests, `read_fraction` of them read-only,
/// salted with every malformed-input shape the runner must survive.
std::string build_stream(Rng& rng, const System& base, int n,
                         double read_fraction) {
  std::ostringstream out;
  std::string last_read;  // re-issued verbatim to exercise read coalescing
  for (int i = 0; i < n; ++i) {
    const double r = rng.uniform(0.0, 1.0);
    if (i % 17 == 5) {
      // Error salt: one malformed shape each pass through the stream.
      // stats belongs here: these sessions carry no metrics registry, so
      // both drivers answer it with the same deterministic error.
      switch (rng.uniform_int(0, 6)) {
        case 0: out << "{not json at all\n"; continue;
        case 1: out << "{\"no_op\": 1}\n"; continue;
        case 2: out << "{\"op\": \"frobnicate\"}\n"; continue;
        case 3: out << "{\"op\": \"what_if\", \"job\": {\"name\": \"x\"}}\n"; continue;
        case 4: out << "{\"op\": \"remove\"}\n"; continue;
        case 5: out << "{\"op\": \"stats\"}\n"; continue;
        default: out << "# comment line\n\n"; continue;
      }
    }
    if (r < read_fraction) {
      if (!last_read.empty() && rng.uniform_int(0, 3) == 0) {
        // A polling client re-submitting a byte-identical read: the
        // scheduler coalesces these, which must stay invisible in the
        // responses (auto ids still advance per instance).
        out << last_read << "\n";
      } else if (rng.uniform_int(0, 9) == 0) {
        last_read = "{\"op\": \"query\"}";
        out << last_read << "\n";
      } else {
        Job job = random_candidate(rng, base, i);
        if (rng.uniform_int(0, 7) == 0) {
          job.id = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
        }  // sometimes an explicit (often duplicate) id
        last_read = job_request("what_if", job, /*with_priority=*/false);
        out << last_read << "\n";
      }
    } else if (rng.uniform_int(0, 2) == 0) {
      // Removals by a guessed id or name: sometimes valid, often not.
      if (rng.uniform_int(0, 1) == 0) {
        out << "{\"op\": \"remove\", \"job_id\": " << rng.uniform_int(1, 12)
            << "}\n";
      } else {
        out << "{\"op\": \"remove\", \"name\": \"cand"
            << rng.uniform_int(0, n) << "\"}\n";
      }
    } else {
      out << job_request("admit", random_candidate(rng, base, i),
                         /*with_priority=*/false)
          << "\n";
    }
  }
  return out.str();
}

std::string strip_latency(const std::string& responses) {
  static const std::regex latency(",\"latency_us\":[^,}]*");
  return std::regex_replace(responses, latency, "");
}

RunnerStats run_sequential(const System& base, const std::string& stream,
                           std::string& responses) {
  AdmissionSession session(base, make_session_config(base));
  std::istringstream in(stream);
  std::ostringstream out;
  const RunnerStats stats = service::run_request_stream(session, in, out);
  responses = out.str();
  return stats;
}

RunnerStats run_scheduled(const System& base, const std::string& stream,
                          const StreamOptions& options,
                          std::string& responses) {
  AdmissionSession session(base, make_session_config(base));
  std::istringstream in(stream);
  std::ostringstream out;
  const RunnerStats stats =
      service::run_request_stream(session, in, out, options);
  responses = out.str();
  return stats;
}

/// The acceptance bar: byte-identical payloads for streams mixing reads,
/// mutations, and malformed input.
TEST(ServiceScheduler, DifferentialMatchesSequentialRunner) {
  const RngFactory factory(0xD1FFBA7C);
  int total_coalesced = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const System base = make_base(100 + static_cast<std::uint64_t>(trial));
    Rng rng = factory.stream(static_cast<std::uint64_t>(trial));
    const std::string stream =
        build_stream(rng, base, /*n=*/60, /*read_fraction=*/0.8);

    std::string expected;
    const RunnerStats ref = run_sequential(base, stream, expected);
    ASSERT_GT(ref.requests, 0);

    std::string got;
    const RunnerStats stats = run_scheduled(base, stream, StreamOptions{}, got);
    EXPECT_EQ(strip_latency(got), strip_latency(expected)) << "trial " << trial;
    EXPECT_EQ(stats.requests, ref.requests) << "trial " << trial;
    EXPECT_EQ(stats.errors, ref.errors) << "trial " << trial;
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_EQ(stats.timeouts, 0);
    total_coalesced += stats.coalesced;
    EXPECT_EQ(ref.coalesced, 0);  // the sequential runner never coalesces
  }
  // The streams contain verbatim-repeated reads, so coalescing must have
  // fired somewhere -- and stayed invisible in the byte comparison above.
  EXPECT_GT(total_coalesced, 0);
}

/// Duplicate reads in one batch execute once and answer per-instance: auto
/// ids advance exactly as they would sequentially, request/line echoes stay
/// per-request, and the payload bytes cannot tell the difference.
TEST(ServiceScheduler, CoalescesDuplicateReadsBitIdentically) {
  const System base = make_base(11);
  Rng rng(0xC0A1E5CE);
  const Job cand = random_candidate(rng, base, 0);
  const std::string what_if =
      job_request("what_if", cand, /*with_priority=*/false);
  std::ostringstream s;
  s << "{\"op\": \"query\"}\n"
    << what_if << "\n"
    << what_if << "\n"
    << what_if << "\n"
    << "{\"op\": \"query\"}\n";
  const std::string stream = s.str();

  std::string expected;
  const RunnerStats ref = run_sequential(base, stream, expected);
  EXPECT_EQ(ref.coalesced, 0);

  std::string got;
  const RunnerStats stats = run_scheduled(base, stream, StreamOptions{}, got);
  EXPECT_EQ(strip_latency(got), strip_latency(expected));
  EXPECT_EQ(stats.requests, 5);
  EXPECT_EQ(stats.coalesced, 3);  // one query + two what_if duplicates
}

/// Satellite: a stream of nothing but malformed lines, unknown ops, and
/// invalid ids completes with one {"ok":false} response per line -- the
/// stream is never terminated early.
TEST(ServiceScheduler, ErrorStreamCompletesWithPerLineResponses) {
  const System base = make_base(7);
  const std::string stream =
      "{broken\n"
      "\n"
      "# skipped comment\n"
      "{\"op\": 42}\n"
      "{\"op\": \"frobnicate\"}\n"
      "{\"op\": \"what_if\"}\n"
      "{\"op\": \"what_if\", \"job\": {\"name\": \"x\"}}\n"
      "{\"op\": \"remove\"}\n"
      "{\"op\": \"remove\", \"job_id\": 424242}\n"
      "{\"op\": \"remove\", \"name\": \"ghost\"}\n"
      "{\"op\": \"query\"}\n";
  std::string responses;
  const RunnerStats stats =
      run_scheduled(base, stream, StreamOptions{}, responses);

  EXPECT_EQ(stats.requests, 9);  // 11 lines minus blank + comment
  EXPECT_EQ(stats.errors, 8);    // everything except the final query
  EXPECT_EQ(stats.failures, 0);

  std::istringstream lines(responses);
  std::string line;
  int parsed = 0;
  bool saw_ok = false;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    const json::Value* ok = doc.value.find("ok");
    ASSERT_NE(ok, nullptr) << line;
    // Every response carries the v2 schema stamp, error lines a structured
    // error object (docs/api.md "Request schema v2").
    const json::Value* schema = doc.value.find("schema_version");
    ASSERT_NE(schema, nullptr) << line;
    EXPECT_EQ(schema->as_number(), 2.0) << line;
    if (ok->as_bool()) {
      saw_ok = true;
    } else {
      const json::Value* error = doc.value.find("error");
      ASSERT_NE(error, nullptr) << line;
      ASSERT_TRUE(error->is_object()) << line;
      const json::Value* code = error->find("code");
      const json::Value* message = error->find("message");
      const json::Value* retryable = error->find("retryable");
      ASSERT_NE(code, nullptr) << line;
      ASSERT_NE(message, nullptr) << line;
      ASSERT_NE(retryable, nullptr) << line;
      EXPECT_FALSE(code->as_string().empty()) << line;
      EXPECT_FALSE(message->as_string().empty()) << line;
      EXPECT_FALSE(retryable->as_bool()) << line;  // none of these retry
    }
    ASSERT_NE(doc.value.find("latency_us"), nullptr) << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, 9);
  EXPECT_TRUE(saw_ok);  // the trailing query succeeded
}

/// Integer request fields: a fraction is never truncated and an
/// out-of-range value never cast. Each such line is a parse-time
/// bad_request naming the field; integral values parse as integers.
TEST(ServiceCodec, IntegerFieldsMustBeIntegersInRange) {
  using service::detail::parse_request;
  using service::detail::RequestClass;
  const std::string job_tail =
      R"(, "deadline": 5.0, "arrivals": [0.0]}})";
  const std::pair<std::string, std::string> bad[] = {
      {R"({"op": "remove", "job_id": 2.9})",
       "field 'job_id' must be an integer in [0, 2^53]"},
      {R"({"op": "remove", "job_id": 1e300})",
       "field 'job_id' must be an integer in [0, 2^53]"},
      {R"({"op": "admit", "job": {"name": "p", "chain": [{"processor": 0, )"
       R"("exec": 0.1, "priority": 5e9}])" + job_tail,
       "bad job: chain[0]: 'priority' must be an integer in the int range"},
      {R"({"op": "what_if", "job": {"name": "i", "id": 1e300, "chain": )"
       R"([{"processor": 0, "exec": 0.1}])" + job_tail,
       "bad job: 'id' must be an integer in [0, 2^53]"},
      {R"({"op": "admit", "job": {"name": "c", "chain": [{"processor": 1e10, )"
       R"("exec": 0.1}])" + job_tail,
       "bad job: chain[0]: 'processor' must be an integer in the int range"},
      {R"({"op": "what_if_region", "axes": [{"param": "exec_scale"}], )"
       R"("columns": 2.5})",
       "field 'columns' must be an integer in the int range"},
      {R"({"op": "what_if_region", "axes": [{"param": "exec_scale", )"
       R"("scope": "processor", "processor": 1e10}]})",
       "bad axis: axis 'processor' must be an integer in the int range"},
  };
  for (const auto& [line, error] : bad) {
    const service::detail::ParsedRequest req = parse_request(line);
    EXPECT_EQ(req.cls, RequestClass::kImmediate) << line;
    EXPECT_EQ(req.error, error) << line;
  }

  // Integral values parse; range checks against the model come later.
  const auto by_id = parse_request(R"({"op": "remove", "job_id": 2})");
  EXPECT_EQ(by_id.cls, RequestClass::kMutate);
  EXPECT_TRUE(by_id.remove_by_id);
  EXPECT_EQ(by_id.remove_id, 2u);
  const auto max_id =
      parse_request(R"({"op": "remove", "job_id": 9007199254740992})");
  EXPECT_EQ(max_id.remove_id, std::uint64_t{1} << 53);
  const auto negative =
      parse_request(R"({"op": "remove", "job_id": -1, "name": "x"})");
  EXPECT_FALSE(negative.remove_by_id);  // not an id: the name decides
  EXPECT_EQ(negative.remove_name, "x");
  const auto region = parse_request(
      R"({"op": "what_if_region", "axes": [{"param": "exec_scale"}], )"
      R"("columns": 3})");
  EXPECT_EQ(region.cls, RequestClass::kRead);
  EXPECT_EQ(region.region.columns, 3);
  const auto out_of_model = parse_request(
      R"({"op": "admit", "job": {"name": "c", "chain": [{"processor": 99, )"
      R"("exec": 0.1}])" + job_tail);
  EXPECT_EQ(out_of_model.cls, RequestClass::kMutate);  // validate rejects it
  EXPECT_EQ(out_of_model.job.chain.at(0).processor, 99);

  // End to end: a fractional remove leaves every job in place.
  const System base = make_base(7);
  std::string responses;
  const RunnerStats stats = run_sequential(
      base, "{\"op\": \"remove\", \"job_id\": 2.9}\n{\"op\": \"query\"}\n",
      responses);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_NE(responses.find("\"code\":\"bad_request\""), std::string::npos);
  EXPECT_NE(responses.find("\"jobs\":" + std::to_string(base.job_count())),
            std::string::npos)
      << responses;
}

/// Trace context: a client-supplied trace_id is echoed verbatim; absent
/// one, a deterministic id is minted from the line's position and bytes --
/// identically in both drivers, parse-error lines included, so trace_id
/// sits inside the byte-identity contract the differential test enforces.
TEST(ServiceScheduler, TraceIdsPropagateOrMintDeterministically) {
  const System base = make_base(5);
  const std::string stream =
      "{\"op\": \"query\", \"trace_id\": \"client-abc\"}\n"
      "{\"op\": \"query\"}\n"
      "{broken\n";

  std::string sequential;
  run_sequential(base, stream, sequential);
  std::string scheduled;
  run_scheduled(base, stream, StreamOptions{}, scheduled);

  const auto trace_ids = [](const std::string& responses) {
    std::vector<std::string> ids;
    std::istringstream lines(responses);
    std::string line;
    while (std::getline(lines, line)) {
      const json::ParseResult doc = json::parse(line);
      EXPECT_TRUE(doc.ok) << line;
      const json::Value* id = doc.value.find("trace_id");
      EXPECT_NE(id, nullptr) << line;
      ids.push_back(id != nullptr ? id->as_string() : std::string());
    }
    return ids;
  };
  const std::vector<std::string> seq_ids = trace_ids(sequential);
  ASSERT_EQ(seq_ids.size(), 3u);
  EXPECT_EQ(seq_ids[0], "client-abc");  // propagated verbatim
  EXPECT_EQ(seq_ids[1].size(), 16u);    // minted: 16 hex chars
  EXPECT_FALSE(seq_ids[2].empty());     // even the parse error carries one
  EXPECT_NE(seq_ids[1], seq_ids[2]);
  EXPECT_EQ(seq_ids, trace_ids(scheduled));  // drivers agree id-for-id
}

/// Backpressure is batch-depth based, hence deterministic: with
/// max_inflight = 2, the third and later consecutive reads are shed with a
/// retryable "overloaded" error until a barrier drains the batch.
TEST(ServiceScheduler, BackpressureShedsDeterministically) {
  const System base = make_base(11);
  Rng rng(23);
  std::ostringstream stream;
  for (int i = 0; i < 5; ++i) {
    stream << job_request("what_if", random_candidate(rng, base, i), false)
           << "\n";
  }
  stream << "{\"op\": \"query\"}\n";  // same class: still shed

  StreamOptions options;
  options.max_inflight = 2;
  std::string responses;
  const RunnerStats stats =
      run_scheduled(base, stream.str(), options, responses);

  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.rejected, 4);  // requests 3..6 overflow the depth-2 batch
  int retries = 0;
  std::istringstream lines(responses);
  std::string line;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    const json::Value* error = doc.value.find("error");
    if (error == nullptr) continue;
    ASSERT_TRUE(error->is_object()) << line;
    if (error->find("code")->as_string() != "overloaded") continue;
    EXPECT_TRUE(error->find("retryable")->as_bool()) << line;
    ASSERT_NE(doc.value.find("ok"), nullptr);
    EXPECT_FALSE(doc.value.find("ok")->as_bool());
    ++retries;
  }
  EXPECT_EQ(retries, 4);

  // A class barrier drains the batch: mutations interleaved with reads keep
  // every batch under the bound, so nothing is shed.
  std::ostringstream paced;
  for (int i = 0; i < 4; ++i) {
    paced << job_request("what_if", random_candidate(rng, base, 10 + i), false)
          << "\n";
    paced << "{\"op\": \"remove\", \"job_id\": 424242}\n";
  }
  const RunnerStats paced_stats =
      run_scheduled(base, paced.str(), options, responses);
  EXPECT_EQ(paced_stats.rejected, 0);
}

/// Requests older than the timeout at execution start are answered with a
/// retryable "timeout" error without running.
TEST(ServiceScheduler, TimeoutExpiresStaleRequests) {
  const System base = make_base(13);
  AdmissionSession session(base, make_session_config(base));
  std::ostringstream out;
  StreamOptions options;
  options.request_timeout_ms = 1.0;
  RequestScheduler scheduler(session, out, options);

  Rng rng(29);
  scheduler.submit_line(
      job_request("what_if", random_candidate(rng, base, 0), false));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.finish();

  EXPECT_EQ(scheduler.stats().requests, 1);
  EXPECT_EQ(scheduler.stats().timeouts, 1);
  EXPECT_EQ(scheduler.stats().errors, 1);
  const json::ParseResult doc = json::parse(out.str());
  ASSERT_TRUE(doc.ok) << out.str();
  const json::Value* error = doc.value.find("error");
  ASSERT_NE(error, nullptr) << out.str();
  ASSERT_TRUE(error->is_object()) << out.str();
  EXPECT_EQ(error->find("code")->as_string(), "timeout");
  EXPECT_TRUE(error->find("retryable")->as_bool());
  EXPECT_FALSE(doc.value.find("ok")->as_bool());
}

/// Regression (scheduler-lifecycle sweep): requests that expire before
/// execution must not consume auto-assigned job ids. Pre-fix, the read pass
/// advanced the simulated counter for every pending what_if before checking
/// staleness, so a timed-out probe still burned an id and every later
/// admit/what_if in the session shifted.
TEST(ServiceScheduler, JobIdCounterSkipsTimedOutRequests) {
  const System base = make_base(13);
  AdmissionSession session(base, make_session_config(base));
  std::ostringstream out;
  StreamOptions options;
  options.request_timeout_ms = 1.0;
  RequestScheduler scheduler(session, out, options);

  Rng rng(31);
  for (int i = 0; i < 3; ++i) {
    scheduler.submit_line(
        job_request("what_if", random_candidate(rng, base, i), false));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The mutation forces a class barrier: the stale what_ifs expire, then the
  // admit executes. Its auto id must be the one the FIRST what_if would have
  // taken -- the expired probes consumed nothing.
  scheduler.submit_line(
      job_request("admit", random_candidate(rng, base, 100), false));
  scheduler.finish();

  EXPECT_EQ(scheduler.stats().timeouts, 3);
  std::uint64_t admit_id = 0;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    if (doc.value.find("op")->as_string() != "admit") continue;
    ASSERT_NE(doc.value.find("job_id"), nullptr) << line;
    admit_id = static_cast<std::uint64_t>(
        doc.value.find("job_id")->as_number());
  }
  // The base system owns ids 1..job_count(); the first free id is next.
  EXPECT_EQ(admit_id, static_cast<std::uint64_t>(base.job_count()) + 1);
}

/// Regression companion, randomized: with backpressure AND the timeout
/// machinery armed (a timeout so large it never fires), shed requests must
/// not consume job ids either -- the surviving responses carry exactly the
/// job_id sequence of a sequential run over the surviving lines.
TEST(ServiceScheduler, ShedRequestsDoNotConsumeJobIds) {
  const RngFactory factory(0x5EDD1FF);
  for (int trial = 0; trial < 2; ++trial) {
    const System base = make_base(200 + static_cast<std::uint64_t>(trial));
    Rng rng = factory.stream(static_cast<std::uint64_t>(trial));
    const std::string stream =
        build_stream(rng, base, /*n=*/50, /*read_fraction=*/0.85);
    std::vector<std::string> input_lines;
    {
      std::istringstream in(stream);
      std::string line;
      while (std::getline(in, line)) input_lines.push_back(line);
    }

    StreamOptions options;
    options.max_inflight = 2;             // dense read runs overflow and shed
    options.request_timeout_ms = 1.0e7;   // armed, never fires
    std::string responses;
    const RunnerStats stats = run_scheduled(base, stream, options, responses);
    ASSERT_GT(stats.rejected, 0) << "trial " << trial
                                 << ": stream never tripped backpressure";
    EXPECT_EQ(stats.timeouts, 0);
    EXPECT_EQ(stats.coalesced, 0);  // timeouts armed => coalescing off

    // Map each shed response back to its input line via the "line" echo,
    // then replay only the surviving lines sequentially.
    std::vector<bool> shed(input_lines.size() + 1, false);
    std::vector<std::uint64_t> scheduled_ids;
    std::istringstream lines(responses);
    std::string line;
    while (std::getline(lines, line)) {
      const json::ParseResult doc = json::parse(line);
      ASSERT_TRUE(doc.ok) << line;
      const json::Value* error = doc.value.find("error");
      if (error != nullptr && error->is_object() &&
          error->find("code")->as_string() == "overloaded") {
        shed[static_cast<std::size_t>(
            doc.value.find("line")->as_number())] = true;
        continue;
      }
      if (const json::Value* id = doc.value.find("job_id"); id != nullptr) {
        scheduled_ids.push_back(
            static_cast<std::uint64_t>(id->as_number()));
      }
    }
    std::ostringstream filtered;
    for (std::size_t i = 0; i < input_lines.size(); ++i) {
      if (!shed[i + 1]) filtered << input_lines[i] << "\n";
    }
    std::string expected;
    run_sequential(base, filtered.str(), expected);
    std::vector<std::uint64_t> sequential_ids;
    std::istringstream expected_lines(expected);
    while (std::getline(expected_lines, line)) {
      const json::ParseResult doc = json::parse(line);
      ASSERT_TRUE(doc.ok) << line;
      if (const json::Value* id = doc.value.find("job_id"); id != nullptr) {
        sequential_ids.push_back(
            static_cast<std::uint64_t>(id->as_number()));
      }
    }
    ASSERT_FALSE(scheduled_ids.empty());
    EXPECT_EQ(scheduled_ids, sequential_ids) << "trial " << trial;
  }
}

/// Regression (scheduler-lifecycle sweep): finish() is idempotent, and
/// submitting after finish() is a programming error with a defined failure
/// -- pre-fix the line was silently accepted and its response lost or
/// emitted after the "final" flush.
TEST(ServiceScheduler, FinishIsIdempotentAndSubmitAfterFinishThrows) {
  const System base = make_base(17);
  AdmissionSession session(base, make_session_config(base));
  std::ostringstream out;
  RequestScheduler scheduler(session, out, StreamOptions{});

  scheduler.submit_line("{\"op\": \"query\"}");
  scheduler.finish();
  const std::string first = out.str();
  EXPECT_FALSE(first.empty());

  scheduler.finish();  // idempotent: no duplicate flush, no throw
  EXPECT_EQ(out.str(), first);

  EXPECT_THROW(scheduler.submit_line("{\"op\": \"query\"}"),
               std::logic_error);
  EXPECT_THROW(scheduler.submit_line("# even comments are rejected"),
               std::logic_error);
  EXPECT_EQ(out.str(), first);  // nothing leaked past the final flush
  EXPECT_EQ(scheduler.stats().requests, 1);
}

/// what_if_region flows through the read path of both drivers and stays
/// inside the byte-identity contract; probing never consumes job ids, so
/// surrounding what_ifs are unaffected.
TEST(ServiceScheduler, RegionRequestsAreByteIdenticalAcrossDrivers) {
  const System base = make_base(31);
  Rng rng(0x9E6107);
  std::ostringstream s;
  s << "{\"op\": \"what_if_region\", \"target\": \"" << base.job(0).name
    << "\", \"axes\": [{\"param\": \"exec_scale\"}]}\n";
  s << job_request("what_if", random_candidate(rng, base, 0), false) << "\n";
  s << "{\"op\": \"what_if_region\", \"target\": \"" << base.job(1).name
    << "\", \"axes\": [{\"param\": \"exec_scale\", \"hi\": 4}, "
      "{\"param\": \"burst\"}], \"columns\": 3}\n";
  s << "{\"op\": \"what_if_region\", \"target\": \"ghost\", "
      "\"axes\": [{\"param\": \"burst\"}]}\n";
  s << "{\"op\": \"what_if_region\", \"axes\": []}\n";
  s << job_request("what_if", random_candidate(rng, base, 1), false) << "\n";
  s << "{\"op\": \"query\"}\n";
  const std::string stream = s.str();

  std::string expected;
  const RunnerStats ref = run_sequential(base, stream, expected);
  EXPECT_EQ(ref.requests, 7);
  EXPECT_EQ(ref.errors, 2);  // unknown target + empty axes

  bool saw_region = false;
  std::istringstream lines(expected);
  std::string line;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    const json::Value* region = doc.value.find("region");
    if (region == nullptr) continue;
    saw_region = true;
    EXPECT_NE(region->find("probes"), nullptr) << line;
    EXPECT_TRUE(region->find("boundary") != nullptr ||
                region->find("columns") != nullptr)
        << line;
  }
  EXPECT_TRUE(saw_region);

  std::string got;
  const RunnerStats stats = run_scheduled(base, stream, StreamOptions{}, got);
  EXPECT_EQ(strip_latency(got), strip_latency(expected));
  EXPECT_EQ(stats.errors, ref.errors);
}

/// Reads always observe the committed state as of the last preceding
/// mutation: the class barrier is the ordering guarantee.
TEST(ServiceScheduler, ReadsObserveLatestCommittedMutation) {
  const System base = make_base(17);

  // A feather-weight candidate with a huge deadline admits cleanly.
  Job light;
  light.name = "light";
  light.deadline = 1000.0;
  light.chain.push_back(Subjob{0, 0.001, 0});
  light.arrivals = ArrivalSequence::periodic(50.0, base.last_release());

  std::ostringstream stream;
  stream << "{\"op\": \"query\"}\n";
  stream << job_request("admit", light, /*with_priority=*/false) << "\n";
  stream << "{\"op\": \"query\"}\n";
  stream << "{\"op\": \"remove\", \"name\": \"light\"}\n";
  stream << "{\"op\": \"query\"}\n";

  std::string responses;
  const RunnerStats stats =
      run_scheduled(base, stream.str(), StreamOptions{}, responses);
  EXPECT_EQ(stats.errors, 0) << responses;

  std::vector<int> job_counts;
  std::istringstream lines(responses);
  std::string line;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    const json::Value* op = doc.value.find("op");
    ASSERT_NE(op, nullptr) << line;
    if (op->as_string() == "admit") {
      const json::Value* committed = doc.value.find("committed");
      ASSERT_NE(committed, nullptr) << line;
      ASSERT_TRUE(committed->as_bool()) << line;
    }
    if (op->as_string() != "query") continue;
    const json::Value* jobs = doc.value.find("jobs");
    ASSERT_NE(jobs, nullptr) << line;
    job_counts.push_back(static_cast<int>(jobs->as_number()));
  }
  ASSERT_EQ(job_counts.size(), 3u);
  EXPECT_EQ(job_counts[0], base.job_count());
  EXPECT_EQ(job_counts[1], base.job_count() + 1);  // saw the admit
  EXPECT_EQ(job_counts[2], base.job_count());      // saw the remove
}

}  // namespace
}  // namespace rta
