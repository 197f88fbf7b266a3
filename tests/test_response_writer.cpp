// Differential test of the service's one response writer
// (service::detail::append_response): over seeded outcomes and envelopes,
// its bytes must equal a json::Value tree built field by field in the
// documented order and serialized with dump(). json::Value stays in src/
// for the system and metrics serializers, so it is an independent oracle
// for the writer's number spelling, string escaping and field order.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "io/json.hpp"
#include "io/system_json.hpp"
#include "service/request_codec.hpp"
#include "util/rng.hpp"

namespace rta {
namespace {

using json::Value;
using service::ExplainHop;
using service::ReadDecision;
using service::detail::append_response;
using service::detail::ErrorReply;
using service::detail::Outcome;
using service::detail::ParsedRequest;
using service::detail::QuerySummary;
using service::detail::RegionReply;
using service::detail::StatsReply;

// --- oracle: the response as a json::Value tree --------------------------

/// The session-error classification the decision body reports.
const char* decision_error_code(const std::string& message) {
  if (message.rfind("duplicate job id", 0) == 0) return "conflict";
  if (message.rfind("no job with id", 0) == 0 ||
      message.rfind("no job named", 0) == 0) {
    return "not_found";
  }
  return "invalid_argument";
}

Value error_value(const char* code, const std::string& message,
                  bool retryable) {
  Value err{Value::Object{}};
  err.set("code", code);
  err.set("message", message);
  err.set("retryable", retryable);
  return err;
}

void decision_into(Value& response, const ReadDecision& rd) {
  response.set("ok", rd.ok);
  if (!rd.error.empty()) {
    response.set("error",
                 error_value(decision_error_code(rd.error), rd.error, false));
  }
  response.set("admitted", rd.admitted);
  response.set("committed", rd.committed);
  response.set("incremental", rd.incremental);
  response.set("job_id", static_cast<double>(rd.job_id));
  response.set("dirty_subjobs", rd.dirty_subjobs);
  response.set("total_subjobs", rd.total_subjobs);
  if (!rd.ok) return;
  response.set("schedulable", rd.schedulable);
  response.set("max_wcrt", time_value(rd.max_wcrt));
  response.set("horizon", time_value(rd.horizon));
  if (!rd.explain.available) return;
  Value hops{Value::Array{}};
  for (const ExplainHop& eh : rd.explain.hops) {
    Value hop{Value::Object{}};
    hop.set("hop", eh.hop);
    hop.set("processor", eh.processor);
    hop.set("bound", time_value(eh.bound));
    hops.as_array().push_back(std::move(hop));
  }
  Value explain{Value::Object{}};
  explain.set("wcrt", time_value(rd.explain.wcrt));
  explain.set("deadline", time_value(rd.explain.deadline));
  explain.set("dominant_hop", rd.explain.dominant_hop);
  explain.set("doublings", rd.explain.horizon_doublings);
  explain.set("hops", std::move(hops));
  response.set("explain", std::move(explain));
}

std::string tree_response(int request_no, int line_no,
                          const ParsedRequest& req,
                          const std::string& trace_id, const Outcome& outcome,
                          double latency_us) {
  Value response;
  response.set("schema_version", 2);
  response.set("request", request_no);
  response.set("line", line_no);
  if (!req.op.empty()) response.set("op", req.op);
  if (req.has_tenant) response.set("tenant", req.tenant);
  response.set("trace_id", trace_id);
  if (const auto* rd = std::get_if<ReadDecision>(&outcome)) {
    decision_into(response, *rd);
  } else if (const auto* q = std::get_if<QuerySummary>(&outcome)) {
    response.set("ok", true);
    response.set("jobs", q->jobs);
    response.set("schedulable", q->schedulable);
    response.set("max_wcrt", time_value(q->max_wcrt));
    response.set("horizon", time_value(q->horizon));
  } else if (const auto* e = std::get_if<ErrorReply>(&outcome)) {
    response.set("ok", false);
    response.set("error", error_value(e->code, e->message, e->retryable));
  } else if (const auto* r = std::get_if<RegionReply>(&outcome)) {
    response.set("ok", true);
    response.set("region", r->region);
  } else {
    response.set("ok", true);
    for (const auto& [key, value] :
         std::get<StatsReply>(outcome).payload.as_object()) {
      response.set(key, value);
    }
  }
  response.set("latency_us", latency_us);
  return response.dump();
}

std::string writer_response(int request_no, int line_no,
                            const ParsedRequest& req,
                            const std::string& trace_id,
                            const Outcome& outcome, double latency_us) {
  std::string out;
  append_response(out, request_no, line_no, req, trace_id, outcome,
                  latency_us);
  return out;
}

// --- seeded inputs -------------------------------------------------------

/// Every byte below 0x20, the two escaped printables, and multi-byte UTF-8.
std::string hostile_text() {
  std::string s = "msg";
  for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
  s += "\"q\\b/\x7f";
  s += "\xc3\xa9\xe2\x9c\x93\xf0\x9d\x84\x9e";  // e-acute, check, G clef
  return s;
}

/// Doubles with a special spelling, plus ordinary ones.
double edge_double(Rng& rng) {
  static const double kEdges[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,  // subnormal
      std::numeric_limits<double>::min(),
      9007199254740992.0,  // 2^53
      9007199254740993.0,  // rounds to 2^53
      1e17,
      1e-5,
      0.1,
      3.3000000000000398,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  constexpr int kCount = static_cast<int>(sizeof(kEdges) / sizeof(kEdges[0]));
  const int pick = rng.uniform_int(0, kCount + 2);
  if (pick < kCount) return kEdges[pick];
  if (pick == kCount) return rng.uniform(-1e6, 1e6);
  if (pick == kCount + 1) return std::ldexp(rng.uniform(0.5, 1.0),
                                            rng.uniform_int(-1074, 1023));
  return static_cast<double>(rng.uniform_int(-1000, 1000));
}

int edge_int(Rng& rng) {
  static const int kEdges[] = {0, 1, -1, std::numeric_limits<int>::max(),
                               std::numeric_limits<int>::min(), 100000000};
  const int pick = rng.uniform_int(0, 6);
  return pick < 6 ? kEdges[pick] : rng.uniform_int(-50, 5000);
}

std::uint64_t edge_job_id(Rng& rng) {
  static const std::uint64_t kEdges[] = {
      0, 1, (std::uint64_t{1} << 53) - 1, std::uint64_t{1} << 53,
      (std::uint64_t{1} << 53) + 1, (std::uint64_t{1} << 53) + 3,
      std::numeric_limits<std::uint64_t>::max()};
  const int pick = rng.uniform_int(0, 7);
  return pick < 7 ? kEdges[pick]
                  : static_cast<std::uint64_t>(rng.uniform_int(2, 1 << 30));
}

std::string edge_text(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return "";
    case 1: return hostile_text();
    case 2: return "plain-" + std::to_string(rng.uniform_int(0, 99));
    default: return "0123456789abcdef";
  }
}

ReadDecision random_decision(Rng& rng, int hops) {
  static const char* kErrors[] = {"duplicate job id 7", "no job with id 9",
                                  "no job named 'x'", "invalid system: y"};
  ReadDecision rd;
  rd.ok = rng.uniform_int(0, 3) != 0;
  if (rng.uniform_int(0, 3) == 0) {
    rd.error = kErrors[rng.uniform_int(0, 3)];
    if (rng.uniform_int(0, 1) == 0) rd.error += hostile_text();
  }
  rd.admitted = rng.uniform_int(0, 1) == 1;
  rd.committed = rng.uniform_int(0, 1) == 1;
  rd.incremental = rng.uniform_int(0, 1) == 1;
  rd.job_id = edge_job_id(rng);
  rd.dirty_subjobs = edge_int(rng);
  rd.total_subjobs = edge_int(rng);
  rd.schedulable = rng.uniform_int(0, 1) == 1;
  rd.max_wcrt = edge_double(rng);
  rd.horizon = edge_double(rng);
  rd.explain.available = hops >= 0;
  for (int h = 0; h < hops; ++h) {
    rd.explain.hops.push_back({h, edge_int(rng), edge_double(rng)});
  }
  rd.explain.dominant_hop = hops > 0 ? rng.uniform_int(0, hops - 1) : -1;
  rd.explain.wcrt = edge_double(rng);
  rd.explain.deadline = edge_double(rng);
  rd.explain.horizon_doublings = rng.uniform_int(0, 3);
  return rd;
}

ParsedRequest random_request(Rng& rng) {
  static const char* kOps[] = {"",      "admit",          "what_if", "remove",
                               "query", "what_if_region", "stats"};
  ParsedRequest req;
  const int pick = rng.uniform_int(0, 7);
  req.op = pick < 7 ? kOps[pick] : hostile_text();
  req.has_tenant = rng.uniform_int(0, 1) == 1;
  if (req.has_tenant) req.tenant = edge_text(rng) + "t";
  return req;
}

void expect_same_bytes(Rng& rng, const Outcome& outcome) {
  const ParsedRequest req = random_request(rng);
  const int request_no = edge_int(rng);
  const int line_no = edge_int(rng);
  const std::string trace_id = edge_text(rng);
  const double latency_us = edge_double(rng);
  EXPECT_EQ(writer_response(request_no, line_no, req, trace_id, outcome,
                            latency_us),
            tree_response(request_no, line_no, req, trace_id, outcome,
                          latency_us));
}

TEST(ResponseWriter, DecisionsMatchValueTree) {
  Rng rng(20261020);
  // -1: no explain; 0: an empty one; 16 hops is the longest chain.
  for (const int hops : {-1, 0, 1, 2, 3, 16}) {
    for (int trial = 0; trial < 200; ++trial) {
      expect_same_bytes(rng, random_decision(rng, hops));
    }
  }
}

TEST(ResponseWriter, EveryErrorCodeMatchesValueTree) {
  Rng rng(7);
  static const char* kCodes[] = {"bad_request",      "not_found",
                                 "conflict",         "invalid_argument",
                                 "unavailable",      "overloaded",
                                 "timeout",          "internal"};
  for (const char* code : kCodes) {
    for (int trial = 0; trial < 20; ++trial) {
      const bool retryable = std::string(code) == "overloaded" ||
                             std::string(code) == "timeout";
      expect_same_bytes(rng, ErrorReply{code, edge_text(rng), retryable});
    }
  }
}

TEST(ResponseWriter, QueryRegionAndStatsMatchValueTree) {
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    expect_same_bytes(rng, QuerySummary{edge_int(rng),
                                        rng.uniform_int(0, 1) == 1,
                                        edge_double(rng), edge_double(rng)});

    Value region{Value::Object{}};
    region.set("target", edge_text(rng));
    Value axes{Value::Array{}};
    for (int k = rng.uniform_int(0, 3); k > 0; --k) {
      Value axis{Value::Object{}};
      axis.set("lo", edge_double(rng));
      axis.set("param", hostile_text());
      axis.set("nested", Value{Value::Array{}});
      axes.as_array().push_back(std::move(axis));
    }
    region.set("axes", std::move(axes));
    region.set("empty", Value{Value::Object{}});
    region.set("none", nullptr);
    expect_same_bytes(rng, RegionReply{std::move(region)});

    Value counters{Value::Object{}};
    counters.set("service." + edge_text(rng), edge_double(rng));
    Value payload{Value::Object{}};
    payload.set("counters", std::move(counters));
    payload.set("gauges", Value{Value::Object{}});
    payload.set("histograms", Value{Value::Object{}});
    expect_same_bytes(rng, StatsReply{std::move(payload)});
  }
}

TEST(ResponseWriter, UnboundedTimesPrintInf) {
  ReadDecision rd;
  rd.ok = true;
  rd.max_wcrt = -std::numeric_limits<double>::infinity();
  rd.horizon = std::numeric_limits<double>::infinity();
  const std::string line =
      writer_response(1, 1, ParsedRequest{}, "t", rd, 0.5);
  EXPECT_NE(line.find("\"max_wcrt\":\"inf\",\"horizon\":\"inf\""),
            std::string::npos)
      << line;
}

}  // namespace
}  // namespace rta
