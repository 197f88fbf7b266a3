// Tests for the sharded multi-tenant front end (service/sharded_scheduler)
// and its TenantRegistry. The central contract mirrors the single-session
// scheduler's: for EVERY tenant in a multi-tenant run, the tenant's
// responses are byte-identical (modulo latency_us) to running just that
// tenant's lines through the sequential run_request_stream against its own
// session -- at shard widths 1, 2, and hardware, under arbitrary
// interleaving with other tenants and mid-stream pumps.
//
// Suites are named Service* so the CI thread-sanitizer job picks them up
// (.github/workflows/ci.yml filters on the Service prefix).
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/json.hpp"
#include "model/priority.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "service/admission_session.hpp"
#include "service/request_runner.hpp"
#include "service/request_scheduler.hpp"
#include "service/sharded_scheduler.hpp"
#include "service/tenant_registry.hpp"
#include "support/strip_latency.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

using service::AdmissionSession;
using service::RunnerStats;
using service::SessionConfig;
using service::ShardedOptions;
using service::ShardedScheduler;
using service::ShardedStats;
using service::TenantRegistry;

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
  cfg.analysis.horizon = 4.0 * default_horizon(base, AnalysisConfig{});
  return cfg;
}

/// One random request line for `tenant`: mostly reads (query / what_if),
/// some admits and (often-invalid) removals, salted with malformed shapes.
std::string random_line(Rng& rng, const std::string& tenant,
                        const System& base, int serial) {
  const std::string prefix = "{\"tenant\": \"" + tenant + "\", ";
  const int salt = rng.uniform_int(0, 19);
  if (salt == 0) return prefix + "\"op\": \"frobnicate\"}";
  if (salt == 1) return prefix + "\"op\": \"remove\"}";
  const double r = rng.uniform(0.0, 1.0);
  if (r < 0.45) return prefix + "\"op\": \"query\"}";
  std::ostringstream job;
  job << "\"job\": {\"name\": \"" << tenant << "_c" << serial
      << "\", \"deadline\": " << rng.uniform(8.0, 30.0)
      << ", \"chain\": [{\"processor\": "
      << rng.uniform_int(0, base.processor_count() - 1)
      << ", \"exec\": " << rng.uniform(0.02, 0.1)
      << "}], \"arrivals\": [0, 9, 18, 27, 36, 45, 54, 63]}";
  if (r < 0.75) return prefix + "\"op\": \"what_if\", " + job.str() + "}";
  if (r < 0.9) return prefix + "\"op\": \"admit\", " + job.str() + "}";
  return prefix + "\"op\": \"remove\", \"name\": \"" + tenant + "_c" +
         std::to_string(rng.uniform_int(0, serial + 4)) + "\"}";
}

/// Partition a multi-tenant response stream by each response's "tenant"
/// echo; responses without one land under "".
std::map<std::string, std::string> split_by_tenant(
    const std::string& responses) {
  std::map<std::string, std::string> per_tenant;
  std::istringstream lines(responses);
  std::string line;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    EXPECT_TRUE(doc.ok) << line;
    const json::Value* tenant = doc.value.find("tenant");
    per_tenant[tenant != nullptr ? tenant->as_string() : std::string()] +=
        line + "\n";
  }
  return per_tenant;
}

// ---------------------------------------------------------------------------
// TenantRegistry

TEST(ServiceTenantRegistry, AddFindAndDuplicateRejection) {
  const System base = make_base(3);
  const SessionConfig cfg = make_session_config(base);
  TenantRegistry registry;
  EXPECT_EQ(registry.count(), 0);
  EXPECT_EQ(registry.find("alpha"), -1);

  const int alpha =
      registry.add("alpha", std::make_unique<AdmissionSession>(base, cfg));
  const int beta =
      registry.add("beta", std::make_unique<AdmissionSession>(base, cfg));
  EXPECT_EQ(alpha, 0);
  EXPECT_EQ(beta, 1);
  EXPECT_EQ(registry.count(), 2);
  EXPECT_EQ(registry.find("alpha"), alpha);
  EXPECT_EQ(registry.find("beta"), beta);
  EXPECT_EQ(registry.name(alpha), "alpha");
  EXPECT_EQ(registry.name(beta), "beta");
  EXPECT_EQ(registry.find("gamma"), -1);
  EXPECT_EQ(registry.find(""), -1);

  // Duplicate registration is rejected and changes nothing.
  EXPECT_EQ(registry.add("alpha",
                         std::make_unique<AdmissionSession>(base, cfg)),
            -1);
  EXPECT_EQ(registry.count(), 2);
  EXPECT_EQ(registry.find("alpha"), alpha);
}

TEST(ServiceTenantRegistry, GrowsWellPastInitialCapacity) {
  const System base = make_base(3);
  const SessionConfig cfg = make_session_config(base);
  TenantRegistry registry;
  constexpr int kTenants = 1000;
  for (int i = 0; i < kTenants; ++i) {
    ASSERT_EQ(registry.add("tenant-" + std::to_string(i),
                           std::make_unique<AdmissionSession>(base, cfg)),
              i);
  }
  ASSERT_EQ(registry.count(), kTenants);
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "tenant-" + std::to_string(i);
    EXPECT_EQ(registry.find(name), i) << name;
    EXPECT_EQ(registry.name(i), name);
  }
  EXPECT_EQ(registry.find("tenant-1000"), -1);
}

TEST(ServiceTenantRegistry, ShardPlacementIsPureAndInRange) {
  for (const int shards : {1, 2, 3, 8}) {
    std::set<int> hit;
    for (int i = 0; i < 64; ++i) {
      std::string name = "t";
      name += std::to_string(i);
      const int s = TenantRegistry::shard_of(name, shards);
      ASSERT_GE(s, 0) << name;
      ASSERT_LT(s, shards) << name;
      EXPECT_EQ(s, TenantRegistry::shard_of(name, shards));  // pure
      hit.insert(s);
    }
    // The hash spreads 64 names over every small shard count.
    EXPECT_EQ(static_cast<int>(hit.size()), shards);
  }
  EXPECT_EQ(TenantRegistry::shard_of("anything", 1), 0);
  EXPECT_EQ(TenantRegistry::shard_of("anything", 0), 0);
  EXPECT_NE(TenantRegistry::hash("alpha"), TenantRegistry::hash("beta"));
}

// ---------------------------------------------------------------------------
// ShardedScheduler

/// The acceptance bar: per-tenant byte-identity against the sequential
/// single-tenant reference at shard widths 1, 2, and hardware, for random
/// interleavings of several tenants (plus unroutable salt) and a pump size
/// small enough to force many mid-stream drains.
TEST(ServiceSharded, PerTenantByteIdentityAcrossShardWidths) {
  const System base = make_base(42);
  const SessionConfig cfg = make_session_config(base);
  const std::vector<std::string> tenants = {"alpha", "beta", "gamma", "delta"};

  // Per-tenant request sequences, then a random global interleaving.
  Rng rng(0x5AAD5);
  std::map<std::string, std::vector<std::string>> streams;
  for (const std::string& t : tenants) {
    std::vector<std::string>& lines = streams[t];
    const int n = rng.uniform_int(12, 24);
    for (int i = 0; i < n; ++i) lines.push_back(random_line(rng, t, base, i));
  }
  std::vector<std::string> interleaved;
  {
    std::map<std::string, std::size_t> cursor;
    std::vector<std::string> open(tenants.begin(), tenants.end());
    while (!open.empty()) {
      // Unroutable salt: these must not disturb any tenant's stream.
      if (interleaved.size() == 3) {
        interleaved.push_back("{\"op\": \"query\"}");
      }
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(open.size()) - 1));
      const std::string& t = open[pick];
      interleaved.push_back(streams[t][cursor[t]++]);
      if (cursor[t] == streams[t].size()) {
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    interleaved.push_back("{\"tenant\": \"ghost\", \"op\": \"query\"}");
  }

  // Sequential per-tenant references.
  std::map<std::string, std::string> expected;
  for (const std::string& t : tenants) {
    AdmissionSession session(base, cfg);
    std::ostringstream in_text;
    for (const std::string& line : streams[t]) in_text << line << "\n";
    std::istringstream in(in_text.str());
    std::ostringstream out;
    service::run_request_stream(session, in, out);
    expected[t] = strip_latency(out.str());
  }

  for (const int width : {1, 2, 0}) {
    TenantRegistry registry;
    for (const std::string& t : tenants) {
      registry.add(t, std::make_unique<AdmissionSession>(base, cfg));
    }
    ShardedOptions options;
    options.shards = width;
    options.pump_lines = 7;  // many mid-stream pumps
    std::ostringstream out;
    ShardedScheduler scheduler(registry, out, options);
    for (const std::string& line : interleaved) scheduler.submit_line(line);
    scheduler.finish();

    const ShardedStats stats = scheduler.stats();
    EXPECT_EQ(stats.unrouted, 2u) << "shards " << width;
    EXPECT_EQ(stats.stream.rejected, 0) << "shards " << width;
    EXPECT_GT(stats.pumps, 1u) << "shards " << width;

    std::map<std::string, std::string> got =
        split_by_tenant(strip_latency(out.str()));
    for (const std::string& t : tenants) {
      EXPECT_EQ(got[t], expected[t]) << "tenant " << t << " shards " << width;
    }
  }
}

/// Responses come back in global arrival order regardless of which shard
/// served them: request i's response is line i of the output.
TEST(ServiceSharded, ResponsesInterleaveInGlobalArrivalOrder) {
  const System base = make_base(5);
  const SessionConfig cfg = make_session_config(base);
  TenantRegistry registry;
  registry.add("alpha", std::make_unique<AdmissionSession>(base, cfg));
  registry.add("beta", std::make_unique<AdmissionSession>(base, cfg));

  ShardedOptions options;
  options.shards = 2;
  std::ostringstream out;
  ShardedScheduler scheduler(registry, out, options);
  std::vector<std::string> want_tenants;
  for (int i = 0; i < 9; ++i) {
    const std::string t = (i % 3 == 0) ? "beta" : "alpha";
    scheduler.submit_line("{\"tenant\": \"" + t + "\", \"op\": \"query\"}");
    want_tenants.push_back(t);
  }
  scheduler.finish();

  std::istringstream lines(out.str());
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    ASSERT_LT(i, want_tenants.size());
    EXPECT_EQ(doc.value.find("tenant")->as_string(), want_tenants[i]) << line;
    ++i;
  }
  EXPECT_EQ(i, want_tenants.size());
}

/// Unroutable lines answer from the untenanted bucket with its own 1-based
/// numbering: bad_request for a missing tenant field or a parse error,
/// not_found (non-retryable) for an unknown tenant.
TEST(ServiceSharded, UnroutableLinesAnswerFromUntenantedBucket) {
  const System base = make_base(5);
  const SessionConfig cfg = make_session_config(base);
  TenantRegistry registry;
  registry.add("alpha", std::make_unique<AdmissionSession>(base, cfg));

  ShardedOptions options;
  std::ostringstream out;
  ShardedScheduler scheduler(registry, out, options);
  scheduler.submit_line("{\"op\": \"query\"}");                        // no tenant
  scheduler.submit_line("{\"tenant\": \"ghost\", \"op\": \"query\"}");  // unknown
  scheduler.submit_line("{broken");                                   // unparseable
  scheduler.submit_line("{\"tenant\": 7, \"op\": \"query\"}");        // bad type
  scheduler.finish();

  const ShardedStats stats = scheduler.stats();
  EXPECT_EQ(stats.unrouted, 4u);
  EXPECT_EQ(stats.routed, 0u);
  EXPECT_EQ(stats.stream.requests, 4);
  EXPECT_EQ(stats.stream.errors, 4);

  std::vector<std::string> codes;
  std::istringstream lines(out.str());
  std::string line;
  int no = 0;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    ++no;
    EXPECT_EQ(static_cast<int>(doc.value.find("request")->as_number()), no)
        << line;
    EXPECT_EQ(static_cast<int>(doc.value.find("line")->as_number()), no)
        << line;
    EXPECT_FALSE(doc.value.find("ok")->as_bool()) << line;
    const json::Value* error = doc.value.find("error");
    ASSERT_NE(error, nullptr) << line;
    ASSERT_TRUE(error->is_object()) << line;
    codes.push_back(error->find("code")->as_string());
    EXPECT_FALSE(error->find("retryable")->as_bool()) << line;
    ASSERT_NE(doc.value.find("trace_id"), nullptr) << line;
    EXPECT_FALSE(doc.value.find("trace_id")->as_string().empty()) << line;
  }
  const std::vector<std::string> want = {"bad_request", "not_found",
                                         "bad_request", "bad_request"};
  EXPECT_EQ(codes, want);
  // The unknown-tenant message names the tenant it failed to resolve.
  EXPECT_NE(out.str().find("no tenant named 'ghost'"), std::string::npos);
}

/// Routing-level backpressure stays tenant-scoped: a tenant over its
/// per-window bound sheds retryable `overloaded` responses while a quiet
/// sibling on the SAME shard (width 1 forces that) is untouched -- and the
/// quiet tenant's responses stay byte-identical to its solo reference.
TEST(ServiceSharded, HotTenantShedsWithoutStarvingSiblings) {
  const System base = make_base(9);
  const SessionConfig cfg = make_session_config(base);
  const std::string quiet_line = "{\"tenant\": \"quiet\", \"op\": \"query\"}";

  std::string quiet_expected;
  {
    AdmissionSession session(base, cfg);
    std::istringstream in(quiet_line + "\n" + quiet_line + "\n");
    std::ostringstream out;
    service::run_request_stream(session, in, out);
    quiet_expected = strip_latency(out.str());
  }

  TenantRegistry registry;
  registry.add("hot", std::make_unique<AdmissionSession>(base, cfg));
  registry.add("quiet", std::make_unique<AdmissionSession>(base, cfg));
  ShardedOptions options;
  options.shards = 1;
  options.stream.max_inflight = 2;
  std::ostringstream out;
  ShardedScheduler scheduler(registry, out, options);
  // One pump window: 6 hot reads (4 over the bound) around 2 quiet reads.
  for (int i = 0; i < 3; ++i) {
    scheduler.submit_line("{\"tenant\": \"hot\", \"op\": \"query\"}");
  }
  scheduler.submit_line(quiet_line);
  for (int i = 0; i < 3; ++i) {
    scheduler.submit_line("{\"tenant\": \"hot\", \"op\": \"query\"}");
  }
  scheduler.submit_line(quiet_line);
  scheduler.finish();

  const int hot = registry.find("hot");
  const int quiet = registry.find("quiet");
  EXPECT_EQ(scheduler.stats().stream.rejected, 4);
  EXPECT_EQ(scheduler.tenant_stats(hot).rejected, 4);
  EXPECT_EQ(scheduler.tenant_stats(quiet).rejected, 0);
  EXPECT_EQ(scheduler.tenant_stats(quiet).errors, 0);

  std::map<std::string, std::string> got =
      split_by_tenant(strip_latency(out.str()));
  EXPECT_EQ(got["quiet"], quiet_expected);
  // Shed responses carry the retryable v2 overloaded error.
  int overloaded = 0;
  std::istringstream lines(got["hot"]);
  std::string line;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    ASSERT_TRUE(doc.ok) << line;
    const json::Value* error = doc.value.find("error");
    if (error == nullptr) continue;
    ASSERT_TRUE(error->is_object()) << line;
    EXPECT_EQ(error->find("code")->as_string(), "overloaded") << line;
    EXPECT_TRUE(error->find("retryable")->as_bool()) << line;
    ++overloaded;
  }
  EXPECT_EQ(overloaded, 4);
}

/// One backpressure rule: under stream.max_inflight every tenant's scheduler
/// bounds each same-class batch exactly as a solo RequestScheduler with the
/// same bound does. For a stream that fits in one pump window, each
/// tenant's answers (sheds included) equal that solo run at every shard
/// width, and the shard series count the same sheds.
TEST(ServiceSharded, BackpressureMatchesSoloRunPerTenant) {
  const System base = make_base(11);
  const SessionConfig cfg = make_session_config(base);
  const std::vector<std::string> tenants = {"alpha", "beta"};
  auto job_line = [](const std::string& tenant, const char* op, int k) {
    return "{\"tenant\": \"" + tenant + "\", \"op\": \"" + op +
           "\", \"job\": {\"name\": \"" + tenant + std::to_string(k) +
           "\", \"deadline\": 20, \"chain\": [{\"processor\": " +
           std::to_string(k % 2) +
           ", \"exec\": 0.05}], \"arrivals\": [0, 9, 18, 27]}}";
  };
  // Per tenant: runs of 3 reads (one over the bound) between mutations.
  std::map<std::string, std::vector<std::string>> streams;
  for (const std::string& t : tenants) {
    const std::string query = "{\"tenant\": \"" + t + "\", \"op\": \"query\"}";
    streams[t] = {query,
                  job_line(t, "what_if", 0),
                  query,
                  job_line(t, "admit", 1),
                  job_line(t, "what_if", 2),
                  query,
                  job_line(t, "what_if", 3),
                  "{\"tenant\": \"" + t + "\", \"op\": \"remove\", "
                  "\"name\": \"" + t + "1\"}",
                  query};
  }
  std::vector<std::string> interleaved;
  for (std::size_t i = 0; i < streams["alpha"].size(); ++i) {
    for (const std::string& t : tenants) interleaved.push_back(streams[t][i]);
  }

  service::StreamOptions bounded;
  bounded.max_inflight = 2;
  std::map<std::string, std::string> expected;
  int expected_rejected = 0;
  for (const std::string& t : tenants) {
    AdmissionSession session(base, cfg);
    std::ostringstream out;
    service::RequestScheduler solo(session, out, bounded);
    for (const std::string& line : streams[t]) solo.submit_line(line);
    solo.finish();
    expected[t] = strip_latency(out.str());
    expected_rejected += solo.stats().rejected;
  }
  ASSERT_EQ(expected_rejected, 4);  // one shed per 3-read run, per tenant

  for (const int width : {1, 2}) {
    TenantRegistry registry;
    for (const std::string& t : tenants) {
      registry.add(t, std::make_unique<AdmissionSession>(base, cfg));
    }
    obs::MetricsRegistry metrics;
    ShardedOptions options;
    options.shards = width;
    options.stream = bounded;
    std::ostringstream out;
    ShardedScheduler scheduler(registry, out, options,
                               obs::Observer{&metrics, nullptr});
    for (const std::string& line : interleaved) scheduler.submit_line(line);
    scheduler.finish();

    EXPECT_EQ(scheduler.stats().pumps, 1u) << "shards " << width;
    EXPECT_EQ(scheduler.stats().stream.rejected, expected_rejected)
        << "shards " << width;
    std::map<std::string, std::string> got =
        split_by_tenant(strip_latency(out.str()));
    for (const std::string& t : tenants) {
      EXPECT_EQ(got[t], expected[t]) << "tenant " << t << " shards " << width;
    }
    std::uint64_t shard_sheds = 0;
    for (int k = 0; k < width; ++k) {
      shard_sheds += metrics.snapshot()
                         .counters["service.shard." + std::to_string(k) +
                                   ".shed"];
    }
    EXPECT_EQ(shard_sheds, static_cast<std::uint64_t>(expected_rejected))
        << "shards " << width;
  }
}

/// Lifecycle mirrors the single-session scheduler: finish() is idempotent
/// and submit_line afterwards is a defined programming error.
TEST(ServiceSharded, FinishIsIdempotentAndSubmitAfterFinishThrows) {
  const System base = make_base(5);
  const SessionConfig cfg = make_session_config(base);
  TenantRegistry registry;
  registry.add("alpha", std::make_unique<AdmissionSession>(base, cfg));
  ShardedOptions options;
  std::ostringstream out;
  ShardedScheduler scheduler(registry, out, options);
  scheduler.submit_line("{\"tenant\": \"alpha\", \"op\": \"query\"}");
  scheduler.finish();
  const std::string first = out.str();
  EXPECT_FALSE(first.empty());
  scheduler.finish();
  EXPECT_EQ(out.str(), first);
  EXPECT_THROW(
      scheduler.submit_line("{\"tenant\": \"alpha\", \"op\": \"query\"}"),
      std::logic_error);
  EXPECT_EQ(out.str(), first);
}

/// run_sharded_stream drives a whole istream, skipping comments and blanks,
/// and reports aggregate stats.
TEST(ServiceSharded, RunShardedStreamDrivesAnIstream) {
  const System base = make_base(5);
  const SessionConfig cfg = make_session_config(base);
  TenantRegistry registry;
  registry.add("alpha", std::make_unique<AdmissionSession>(base, cfg));
  registry.add("beta", std::make_unique<AdmissionSession>(base, cfg));
  std::istringstream in(
      "# header comment\n"
      "\n"
      "{\"tenant\": \"alpha\", \"op\": \"query\"}\n"
      "{\"tenant\": \"beta\", \"op\": \"query\"}\n"
      "{\"tenant\": \"ghost\", \"op\": \"query\"}\n");
  std::ostringstream out;
  ShardedOptions options;
  options.shards = 2;
  const ShardedStats stats =
      service::run_sharded_stream(registry, in, out, options);
  EXPECT_EQ(stats.stream.requests, 3);
  EXPECT_EQ(stats.routed, 2u);
  EXPECT_EQ(stats.unrouted, 1u);
  EXPECT_EQ(stats.stream.errors, 1);
  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 3);
}

/// shard_of spreads tenants evenly: a chi-square-style bound over 10k
/// generated names at widths 2, 3, and 8. With a uniform placement the
/// statistic follows chi-square with at most 7 degrees of freedom, so 40
/// is astronomically generous -- a systematic bias (e.g. folding only the
/// low hash bits badly) blows through it immediately.
TEST(ServiceSharded, ShardOfSpreadsTenantsEvenly) {
  constexpr int kTenants = 10000;
  std::vector<std::string> names;
  names.reserve(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    names.push_back("tenant-" + std::to_string(i));
  }
  for (int shards : {2, 3, 8}) {
    std::vector<int> counts(static_cast<std::size_t>(shards), 0);
    for (const std::string& n : names) {
      const int s = TenantRegistry::shard_of(n, shards);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      ++counts[static_cast<std::size_t>(s)];
    }
    const double expected =
        static_cast<double>(kTenants) / static_cast<double>(shards);
    double chi2 = 0.0;
    for (int c : counts) {
      const double d = static_cast<double>(c) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 40.0) << "shards=" << shards << " chi2=" << chi2;
    for (int c : counts) EXPECT_GT(c, 0) << "empty shard at width " << shards;
  }
}

/// Placement is width-independent and a pure function of the name: width 1
/// collapses to shard 0, and the shard at any width never depends on what
/// else has been hashed before or since.
TEST(ServiceSharded, ShardOfIsPureAndWidthIndependent) {
  const std::vector<std::string> names = {
      "alpha", "beta", "gamma", "tenant-42", "a", "", "long-tenant-name-x"};
  std::vector<int> first;
  for (const std::string& n : names) {
    EXPECT_EQ(TenantRegistry::shard_of(n, 1), 0);
    first.push_back(TenantRegistry::shard_of(n, 8));
  }
  // Interleave unrelated hashing, then recompute in reverse order.
  for (int i = 0; i < 1000; ++i) {
    (void)TenantRegistry::hash("noise-" + std::to_string(i));
  }
  for (std::size_t i = names.size(); i-- > 0;) {
    EXPECT_EQ(TenantRegistry::shard_of(names[i], 8), first[i]) << names[i];
  }
}

/// Rebuilding the registry in a different insertion order may move dense
/// indices but never moves a tenant's shard, and name resolution stays
/// consistent -- the property that keeps per-tenant byte-identity
/// width-independent across restarts.
TEST(ServiceSharded, ShardPlacementStableAcrossRegistryRebuilds) {
  const System base = make_base(7);
  const SessionConfig cfg = make_session_config(base);
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.emplace_back("t");
    names.back() += std::to_string(i);
  }

  constexpr int kShards = 3;
  std::map<std::string, int> shard_by_name;
  for (const std::string& n : names) {
    shard_by_name[n] = TenantRegistry::shard_of(n, kShards);
  }

  for (int rebuild = 0; rebuild < 3; ++rebuild) {
    std::vector<std::string> order = names;
    // Rotate the insertion order differently each rebuild.
    std::rotate(order.begin(),
                order.begin() + rebuild * 4, order.end());
    if (rebuild == 2) std::reverse(order.begin(), order.end());
    TenantRegistry registry;
    for (const std::string& n : order) {
      registry.add(n, std::make_unique<AdmissionSession>(base, cfg));
    }
    ASSERT_EQ(registry.count(), static_cast<int>(names.size()));
    for (const std::string& n : names) {
      const int idx = registry.find(n);
      ASSERT_GE(idx, 0) << n;
      EXPECT_EQ(registry.name(idx), n);
      EXPECT_EQ(TenantRegistry::shard_of(n, kShards), shard_by_name[n]) << n;
    }
  }
}

}  // namespace
}  // namespace rta
