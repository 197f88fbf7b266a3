// Versioned JSON round trips (io/system_json.hpp, io/json.hpp): systems and
// analysis results must survive save -> load bit-identically, and the JSON
// and text formats must agree on the systems they describe.
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "io/json.hpp"
#include "io/system_json.hpp"
#include "io/system_text.hpp"
#include "model/priority.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

System sample_system(std::uint64_t seed) {
  JobShopConfig cfg;
  cfg.stages = 2;
  cfg.processors_per_stage = 2;
  cfg.jobs = 4;
  cfg.utilization = 0.55;
  cfg.pattern = ArrivalPattern::kAperiodic;  // irrational-ish release times
  Rng rng(seed);
  System system = generate_jobshop(cfg, rng);
  system.set_scheduler(1, SchedulerKind::kSpnp);
  system.set_scheduler(3, SchedulerKind::kFcfs);
  assign_proportional_deadline_monotonic(system);
  return system;
}

void expect_same_system(const System& a, const System& b) {
  ASSERT_EQ(a.processor_count(), b.processor_count());
  for (int p = 0; p < a.processor_count(); ++p) {
    EXPECT_EQ(a.scheduler(p), b.scheduler(p)) << "processor " << p;
  }
  ASSERT_EQ(a.job_count(), b.job_count());
  for (int k = 0; k < a.job_count(); ++k) {
    const Job& ja = a.job(k);
    const Job& jb = b.job(k);
    EXPECT_EQ(ja.name, jb.name);
    EXPECT_EQ(ja.deadline, jb.deadline) << ja.name;  // bit-identical
    ASSERT_EQ(ja.chain.size(), jb.chain.size()) << ja.name;
    for (std::size_t h = 0; h < ja.chain.size(); ++h) {
      EXPECT_EQ(ja.chain[h].processor, jb.chain[h].processor);
      EXPECT_EQ(ja.chain[h].exec_time, jb.chain[h].exec_time);
      EXPECT_EQ(ja.chain[h].priority, jb.chain[h].priority);
    }
    ASSERT_EQ(ja.arrivals.count(), jb.arrivals.count()) << ja.name;
    for (std::size_t m = 1; m <= ja.arrivals.count(); ++m) {
      EXPECT_EQ(ja.arrivals.release(m), jb.arrivals.release(m))
          << ja.name << " release " << m;
    }
  }
}

TEST(SystemJson, RoundTripIsBitIdentical) {
  const System original = sample_system(21);
  const ParsedSystem reparsed = parse_system_json(to_system_json(original));
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  expect_same_system(original, reparsed.system);
  // Stable ids are carried (unlike the text format).
  for (int k = 0; k < original.job_count(); ++k) {
    EXPECT_EQ(original.job(k).id, reparsed.system.job(k).id);
  }
  // A second trip produces the same bytes: serialization is deterministic.
  EXPECT_EQ(to_system_json(original), to_system_json(reparsed.system));
}

TEST(SystemJson, AgreesWithTextFormat) {
  const System original = sample_system(22);
  const ParsedSystem from_text = parse_system_text(to_system_text(original));
  const ParsedSystem from_json = parse_system_json(to_system_json(original));
  ASSERT_TRUE(from_text.ok) << from_text.error;
  ASSERT_TRUE(from_json.ok) << from_json.error;
  expect_same_system(from_text.system, from_json.system);

  // Both loads analyze to bit-identical bounds.
  AnalysisConfig cfg;
  const AnalysisResult rt = BoundsAnalyzer(cfg).analyze(from_text.system);
  const AnalysisResult rj = BoundsAnalyzer(cfg).analyze(from_json.system);
  ASSERT_TRUE(rt.ok && rj.ok);
  ASSERT_EQ(rt.jobs.size(), rj.jobs.size());
  for (std::size_t k = 0; k < rt.jobs.size(); ++k) {
    EXPECT_EQ(rt.jobs[k].wcrt, rj.jobs[k].wcrt) << "job " << k;
  }
}

TEST(SystemJson, RejectsUnsupportedSchemaVersion) {
  std::string text = to_system_json(sample_system(23));
  const std::string from = "\"schema_version\": 1";
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "\"schema_version\": 99");
  const ParsedSystem parsed = parse_system_json(text);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("schema_version"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find('1'), std::string::npos) << parsed.error;
}

TEST(SystemJson, RejectsMalformedInput) {
  EXPECT_FALSE(parse_system_json("not json").ok);
  EXPECT_FALSE(parse_system_json("{}").ok);
  EXPECT_FALSE(parse_system_json("[1, 2]").ok);
  // Structural validation runs on load, as for the text format.
  const std::string bad_proc = R"({
    "schema_version": 1,
    "processors": [{"scheduler": "SPP"}],
    "jobs": [{"name": "t", "deadline": 1,
              "chain": [{"processor": 7, "exec": 0.1, "priority": 1}],
              "arrivals": [0]}]
  })";
  const ParsedSystem parsed = parse_system_json(bad_proc);
  EXPECT_FALSE(parsed.ok);
}

/// A one-job system document with the integer fields spliced in verbatim.
std::string int_fields_doc(const std::string& schema_version,
                           const std::string& id, const std::string& processor,
                           const std::string& priority) {
  return R"({"schema_version": )" + schema_version +
         R"(, "processors": [{"scheduler": "SPP"}], "jobs": [{"name": "t", )"
         R"("id": )" + id + R"(, "deadline": 1, "chain": [{"processor": )" +
         processor + R"(, "exec": 0.1, "priority": )" + priority +
         R"(}], "arrivals": [0]}]})";
}

struct BadCase {
  const char* label;
  std::string doc;
  const char* error;  ///< the exact load error
};

TEST(SystemJson, IntegerFieldsMustBeIntegersInRange) {
  // A fraction is never truncated and an out-of-range value never cast:
  // every such value is a load error naming the field.
  const char* const kProc = "jobs[0]: chain[0]: 'processor' must be an "
                            "integer in the int range";
  const char* const kPrio = "jobs[0]: chain[0]: 'priority' must be an "
                            "integer in the int range";
  const char* const kId = "jobs[0]: 'id' must be an integer in [0, 2^53]";
  const char* const kVersion =
      "'schema_version' must be an integer in the int range";
  const BadCase cases[] = {
      {"fractional processor", int_fields_doc("1", "7", "0.5", "1"), kProc},
      {"huge processor", int_fields_doc("1", "7", "1e10", "1"), kProc},
      {"processor below int", int_fields_doc("1", "7", "-3e9", "1"), kProc},
      {"fractional priority", int_fields_doc("1", "7", "0", "1.5"), kPrio},
      {"huge priority", int_fields_doc("1", "7", "0", "5e9"), kPrio},
      {"fractional id", int_fields_doc("1", "2.9", "0", "1"), kId},
      {"huge id", int_fields_doc("1", "1e300", "0", "1"), kId},
      {"id past 2^53", int_fields_doc("1", "9007199254740994", "0", "1"), kId},
      {"fractional schema_version", int_fields_doc("1.5", "7", "0", "1"),
       kVersion},
      {"huge schema_version", int_fields_doc("1e300", "7", "0", "1"),
       kVersion},
      // Integral values load; the model's own checks still apply.
      {"processor out of model range", int_fields_doc("1", "7", "99", "1"),
       "invalid system: job 0 hop 0 references invalid processor 99"},
      {"negative processor", int_fields_doc("1", "7", "-1", "1"),
       "invalid system: job 0 hop 0 references invalid processor -1"},
      {"negative id", int_fields_doc("1", "-1", "0", "1"),
       "jobs[0]: 'id' must be a nonnegative number"},
      {"unsupported schema_version", int_fields_doc("99", "7", "0", "1"),
       "unsupported schema_version 99 (supported: 1)"},
  };
  for (const BadCase& c : cases) {
    const ParsedSystem parsed = parse_system_json(c.doc);
    EXPECT_FALSE(parsed.ok) << c.label;
    EXPECT_EQ(parsed.error, c.error) << c.label;
  }

  // The range ends themselves load.
  const ParsedSystem edge = parse_system_json(
      int_fields_doc("1", "9007199254740992", "0", "-2147483648"));
  ASSERT_TRUE(edge.ok) << edge.error;
  EXPECT_EQ(edge.system.job(0).id, std::uint64_t{1} << 53);
  EXPECT_EQ(edge.system.job(0).chain[0].priority,
            std::numeric_limits<int>::min());
}

TEST(Json, CheckedIntegerRejectsFractionsRangeAndKinds) {
  const json::ParseResult doc =
      json::parse("[3, -0.0, 2.5, 1e300, -1e300, \"7\", 9007199254740992]");
  ASSERT_TRUE(doc.ok) << doc.error;
  const json::Value::Array& v = doc.value.as_array();
  EXPECT_EQ(json::checked_integer(v[0], 0, 10), 3);
  EXPECT_EQ(json::checked_integer(v[1], 0, 10), 0);
  EXPECT_EQ(json::checked_integer(v[0], 4, 10), std::nullopt);
  EXPECT_EQ(json::checked_integer(v[2], 0, 10), std::nullopt);
  EXPECT_EQ(json::checked_integer(v[3], json::kIntMin, json::kIntMax),
            std::nullopt);
  EXPECT_EQ(json::checked_integer(v[4], json::kIntMin, json::kIntMax),
            std::nullopt);
  EXPECT_EQ(json::checked_integer(v[5], 0, 10), std::nullopt);
  EXPECT_EQ(json::checked_integer(v[6], 0, json::kMaxExactInteger),
            json::kMaxExactInteger);
}

TEST(ResultJson, HopIndicesMustBeIntegers) {
  const auto doc = [](const std::string& job, const std::string& hop) {
    return R"({"schema_version": 1, "ok": true, "horizon": 10, "jobs": [)"
           R"({"wcrt": 1, "schedulable": true, "hops": [{"job": )" +
           job + R"(, "hop": )" + hop + R"(, "local_bound": 1}]}]})";
  };
  const ParsedResult good = parse_result_json(doc("0", "0"));
  ASSERT_TRUE(good.ok) << good.error;
  for (const auto& [job, hop] :
       {std::pair<std::string, std::string>{"0.5", "0"}, {"0", "1.5"},
        {"1e10", "0"}, {"0", "-1e300"}}) {
    const ParsedResult bad = parse_result_json(doc(job, hop));
    EXPECT_FALSE(bad.ok) << job << " " << hop;
    EXPECT_NE(bad.error.find("malformed hop entry"), std::string::npos)
        << bad.error;
  }
}

TEST(SystemJson, JobParserReportsMissingPriorities) {
  const std::string no_prio = R"({"name": "t", "deadline": 2,
    "chain": [{"processor": 0, "exec": 0.5}], "arrivals": [0, 1]})";
  json::ParseResult parsed = json::parse(no_prio);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Job job;
  std::string error;
  bool saw_priority = true;
  ASSERT_TRUE(parse_job_json(parsed.value, job, error, &saw_priority))
      << error;
  EXPECT_FALSE(saw_priority);
  EXPECT_EQ(job.name, "t");
  ASSERT_EQ(job.chain.size(), 1u);
  EXPECT_EQ(job.chain[0].exec_time, 0.5);
}

TEST(ResultJson, RoundTripPreservesBoundsAndInfinities) {
  const System system = sample_system(24);
  AnalysisConfig cfg;
  AnalysisResult result = BoundsAnalyzer(cfg).analyze(system);
  ASSERT_TRUE(result.ok);
  result.jobs[0].wcrt = kTimeInfinity;  // exercise the "inf" encoding
  result.jobs[0].schedulable = false;

  for (const bool compact : {false, true}) {
    const ParsedResult back =
        parse_result_json(to_result_json(result, compact));
    ASSERT_TRUE(back.ok) << back.error;
    ASSERT_EQ(back.result.ok, result.ok);
    EXPECT_EQ(back.result.horizon, result.horizon);
    ASSERT_EQ(back.result.jobs.size(), result.jobs.size());
    EXPECT_TRUE(std::isinf(back.result.jobs[0].wcrt));
    for (std::size_t k = 0; k < result.jobs.size(); ++k) {
      EXPECT_EQ(back.result.jobs[k].wcrt, result.jobs[k].wcrt) << k;
      EXPECT_EQ(back.result.jobs[k].schedulable, result.jobs[k].schedulable);
      ASSERT_EQ(back.result.jobs[k].hops.size(), result.jobs[k].hops.size());
      for (std::size_t h = 0; h < result.jobs[k].hops.size(); ++h) {
        EXPECT_EQ(back.result.jobs[k].hops[h].local_bound,
                  result.jobs[k].hops[h].local_bound);
      }
    }
  }
}

TEST(ResultJson, ErrorResultRoundTrips) {
  AnalysisResult result;
  result.ok = false;
  result.error = "subjob dependency graph has a cycle";
  const ParsedResult back = parse_result_json(to_result_json(result));
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_FALSE(back.result.ok);
  EXPECT_EQ(back.result.error, result.error);
}

TEST(Json, ValueParserBasics) {
  const json::ParseResult r =
      json::parse(R"({"a": [1, 2.5, "x\n", true, null], "b": {"c": -3e2}})");
  ASSERT_TRUE(r.ok) << r.error;
  const json::Value* a = r.value.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 5u);
  EXPECT_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_EQ(a->as_array()[2].as_string(), "x\n");
  const json::Value* b = r.value.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->find("c")->as_number(), -300.0);

  EXPECT_FALSE(json::parse("{\"a\": 1,}").ok);     // trailing comma
  EXPECT_FALSE(json::parse("{\"a\":1} x").ok);     // trailing garbage
  EXPECT_FALSE(json::parse("{\"a\":1,\"a\":2}").ok);  // duplicate key
}

TEST(Json, NumbersSurviveDumpParse) {
  const double values[] = {0.0,       1.0 / 3.0, 1e-300, 6.02e23,
                           -0.1,      3.141592653589793,
                           1.7976931348623157e308};
  for (const double v : values) {
    json::Value doc;
    doc.set("v", json::Value(v));
    const json::ParseResult back = json::parse(doc.dump());
    ASSERT_TRUE(back.ok) << back.error;
    EXPECT_EQ(back.value.find("v")->as_number(), v);
  }
}

// Strict JSON number grammar: parse_number must reject everything the
// grammar excludes instead of letting strtod swallow a prefix, and must be
// immune to the process locale's decimal separator.
TEST(Json, RejectsMalformedNumbers) {
  const char* bad[] = {
      "[12abc]",   // trailing garbage inside a token
      "[1.2.3]",   // second decimal point
      "[1e]",      // empty exponent
      "[1e+]",     // sign-only exponent
      "[+1]",      // leading plus
      "[01]",      // leading zero
      "[.5]",      // missing integer part
      "[1.]",      // missing fraction digits
      "[0x10]",    // hex
      "[--1]",     // double sign
      "[Infinity]", "[nan]",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(json::parse(text).ok) << text;
  }
}

TEST(Json, AcceptsFullNumberGrammar) {
  const struct {
    const char* text;
    double value;
  } good[] = {
      {"[0]", 0.0},       {"[-0]", -0.0},    {"[12]", 12.0},
      {"[1.5]", 1.5},     {"[1e3]", 1000.0}, {"[1E-3]", 0.001},
      {"[0.5e+2]", 50.0}, {"[1e308]", 1e308},
  };
  for (const auto& t : good) {
    const json::ParseResult r = json::parse(t.text);
    ASSERT_TRUE(r.ok) << t.text << ": " << r.error;
    EXPECT_EQ(r.value.as_array()[0].as_number(), t.value) << t.text;
  }
}

TEST(Json, OverflowingNumberIsAnErrorUnderflowIsZero) {
  // 1e999 would read back as +inf and break the dump->parse round trip;
  // the parser reports it instead of silently converting.
  const json::ParseResult over = json::parse("[1e999]");
  EXPECT_FALSE(over.ok);
  EXPECT_NE(over.error.find("out of range"), std::string::npos) << over.error;
  // Gradual underflow to zero is a faithful IEEE result, not an error.
  const json::ParseResult under = json::parse("[1e-999]");
  ASSERT_TRUE(under.ok) << under.error;
  EXPECT_EQ(under.value.as_array()[0].as_number(), 0.0);
}

}  // namespace
}  // namespace rta
