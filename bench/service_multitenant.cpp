// Multi-tenant admission serving: N independent tenants (default 1000),
// each a committed clone of one prototype AdmissionSession on a tiny job
// shop, driven through the ShardedScheduler at shard widths 1, 2, and
// hardware against a sequential per-tenant baseline.
//
// The bench is a determinism proof first and a throughput report second:
//
//  * Identity phase. One global stream (~6k requests by default) random-
//    interleaves every tenant's request sequence. For each shard width the
//    sharded responses are split back per tenant, stripped of latency_us,
//    and digest-compared against THAT tenant's sequential reference run
//    (run_request_stream on its own session, its lines alone). Any
//    mismatch on any tenant at any width is FATAL -- the per-tenant
//    byte-identity contract of docs/api.md "Multi-tenant serving".
//    The sequential baseline timing is the sum of those per-tenant runs:
//    exactly the work a one-session-at-a-time front end would do.
//
//  * Hot-tenant phase. One tenant floods (long bursts per pump window)
//    while every other tenant trickles, with stream.max_inflight bounding
//    each tenant's same-class batch (a pump flushes every batch). Sheds MUST land on the hot tenant only: a
//    single rejected request on any quiet tenant is FATAL (backpressure
//    isolation), and the quiet tenants' responses must still match their
//    solo references byte for byte.
//
// Tenant construction cost is part of the story: all tenants clone one
// committed prototype, so the base analysis runs ONCE no matter how many
// tenants serve (each clone shares the prototype's immutable curves). The
// bench reports the prototype analysis time and the amortized per-tenant
// clone time alongside the serving numbers.
//
// Output: BENCH_multitenant.json (baseline: bench/baselines/, regenerated
// with the CI smoke parameters --tenants 64 --requests-per-tenant 4).
//
// Flags: --tenants N (default 1000)  --requests-per-tenant N (default 6)
//        --stages N (default 2)      --procs N (default 2, per stage)
//        --jobs N (default 3)        --util U (default 0.4)
//        --repeats N (default 2)     --seed S (default 42)
//        --hot-bursts N (default 8)  --hot-burst-len N (default 24)
//        --out FILE (default BENCH_multitenant.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "model/priority.hpp"
#include "service/admission_session.hpp"
#include "service/request_runner.hpp"
#include "service/sharded_scheduler.hpp"
#include "service/tenant_registry.hpp"
#include "support/strip_latency.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

using namespace rta;

namespace {

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

System make_base(const Options& opts, std::uint64_t seed) {
  JobShopConfig cfg;
  cfg.stages = static_cast<std::size_t>(opts.get_int("stages", 2));
  cfg.processors_per_stage =
      static_cast<std::size_t>(opts.get_int("procs", 2));
  cfg.jobs = static_cast<std::size_t>(opts.get_int("jobs", 3));
  cfg.pattern = ArrivalPattern::kPeriodic;
  cfg.utilization = opts.get_double("util", 0.4);
  cfg.window_periods = 4.0;
  cfg.deadline.period_multiple = 3.0;
  cfg.scheduler = SchedulerKind::kSpp;
  Rng rng(seed);
  System system = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(system);
  return system;
}

std::string tenant_name(int i) {
  std::string name = "tenant-";
  name += std::to_string(i);
  return name;
}

/// One random request line for tenant `name`: the service mix (reads
/// heavy, some admits/removes, occasional malformed salt).
std::string random_line(Rng& rng, const std::string& name, const System& base,
                        int serial) {
  const std::string prefix = "{\"tenant\": \"" + name + "\", ";
  if (rng.uniform_int(0, 24) == 0) return prefix + "\"op\": \"frobnicate\"}";
  const double r = rng.uniform(0.0, 1.0);
  if (r < 0.4) return prefix + "\"op\": \"query\"}";
  std::ostringstream job;
  job << "\"job\": {\"name\": \"" << name << "_c" << serial
      << "\", \"deadline\": " << rng.uniform(8.0, 30.0)
      << ", \"chain\": [{\"processor\": "
      << rng.uniform_int(0, base.processor_count() - 1)
      << ", \"exec\": " << rng.uniform(0.02, 0.1)
      << "}], \"arrivals\": [0, 9, 18, 27, 36, 45, 54, 63]}";
  if (r < 0.75) return prefix + "\"op\": \"what_if\", " + job.str() + "}";
  if (r < 0.9) return prefix + "\"op\": \"admit\", " + job.str() + "}";
  return prefix + "\"op\": \"remove\", \"name\": \"" + name + "_c" +
         std::to_string(rng.uniform_int(0, serial + 2)) + "\"}";
}

std::uint64_t bytes_digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Split a multi-tenant response stream into per-tenant digests of the
/// latency-stripped bytes, keyed by the "tenant" echo.
std::map<std::string, std::uint64_t> per_tenant_digests(
    const std::string& responses) {
  std::map<std::string, std::string> buckets;
  std::istringstream lines(responses);
  std::string line;
  while (std::getline(lines, line)) {
    const json::ParseResult doc = json::parse(line);
    std::string tenant;
    if (doc.ok) {
      if (const json::Value* t = doc.value.find("tenant"); t != nullptr) {
        tenant = t->as_string();
      }
    }
    buckets[tenant] += strip_latency(line) + "\n";
  }
  std::map<std::string, std::uint64_t> digests;
  for (const auto& [tenant, bytes] : buckets) {
    digests[tenant] = bytes_digest(bytes);
  }
  return digests;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const int tenants = static_cast<int>(opts.get_int("tenants", 1000));
  const int per_tenant = static_cast<int>(opts.get_int("requests-per-tenant", 6));
  const int repeats = static_cast<int>(opts.get_int("repeats", 2));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const std::string out = opts.get("out", "BENCH_multitenant.json");

  const System base = make_base(opts, seed);
  service::SessionConfig session_cfg;
  session_cfg.analysis.horizon = default_horizon(base, AnalysisConfig{});

  // One prototype carries the one and only base analysis; every tenant is a
  // committed clone sharing its immutable curves.
  const Clock::time_point proto0 = Clock::now();
  service::AdmissionSession prototype(base, session_cfg);
  const double prototype_us = micros_since(proto0);
  if (!prototype.last().ok) {
    std::fprintf(stderr, "base analysis failed: %s\n",
                 prototype.last().error.c_str());
    return 1;
  }

  // Per-tenant request sequences and the random global interleaving.
  const RngFactory factory(seed ^ 0x7E4A47ull);
  std::vector<std::vector<std::string>> streams(
      static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    Rng rng = factory.stream(static_cast<std::uint64_t>(t));
    const std::string name = tenant_name(t);
    for (int i = 0; i < per_tenant; ++i) {
      streams[static_cast<std::size_t>(t)].push_back(
          random_line(rng, name, base, i));
    }
  }
  std::string global_stream;
  {
    Rng rng = factory.stream(0xFEEDull);
    std::vector<int> cursor(static_cast<std::size_t>(tenants), 0);
    std::vector<int> open(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) open[static_cast<std::size_t>(t)] = t;
    while (!open.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(open.size()) - 1));
      const int t = open[pick];
      global_stream +=
          streams[static_cast<std::size_t>(t)]
                 [static_cast<std::size_t>(cursor[static_cast<std::size_t>(t)]++)];
      global_stream += "\n";
      if (cursor[static_cast<std::size_t>(t)] == per_tenant) {
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
  }
  const int total_requests = tenants * per_tenant;

  std::printf("Multi-tenant serving: %d tenants x %d requests "
              "(%d total) on a %d-job / %d-processor base, best of %d\n",
              tenants, per_tenant, total_requests, base.job_count(),
              base.processor_count(), repeats);

  // ---- Sequential per-tenant baseline (and the reference digests) -------
  double seq_best_us = -1.0;
  double clone_total_us = 0.0;
  std::map<std::string, std::uint64_t> reference;
  for (int rep = 0; rep < repeats; ++rep) {
    std::map<std::string, std::uint64_t> digests;
    const Clock::time_point t0 = Clock::now();
    double clone_us = 0.0;
    for (int t = 0; t < tenants; ++t) {
      const Clock::time_point c0 = Clock::now();
      const std::unique_ptr<service::AdmissionSession> session =
          prototype.clone_committed();
      clone_us += micros_since(c0);
      std::ostringstream in_text;
      for (const std::string& line : streams[static_cast<std::size_t>(t)]) {
        in_text << line << "\n";
      }
      std::istringstream in(in_text.str());
      std::ostringstream responses;
      service::run_request_stream(*session, in, responses);
      digests[tenant_name(t)] = bytes_digest(strip_latency(responses.str()));
    }
    const double us = micros_since(t0);
    if (rep == 0) {
      reference = digests;
      clone_total_us = clone_us;
    } else if (digests != reference) {
      std::fprintf(stderr,
                   "FATAL: sequential reference differs across repeats\n");
      return 1;
    }
    if (seq_best_us < 0.0 || us < seq_best_us) seq_best_us = us;
  }
  std::printf("  prototype analysis %.1f us, %d clones %.1f us total "
              "(%.2f us/tenant)\n",
              prototype_us, tenants, clone_total_us,
              clone_total_us / std::max(1, tenants));
  std::printf("  %-16s %12.1f us  %10.1f req/s\n", "sequential", seq_best_us,
              seq_best_us > 0.0 ? 1e6 * total_requests / seq_best_us : 0.0);

  // ---- Sharded runs: widths 1, 2, hardware ------------------------------
  struct ShardRun {
    const char* label;
    int shards;
    double best_us = -1.0;
    service::ShardedStats stats;
  };
  std::vector<ShardRun> runs = {
      {"shards=1", 1, -1.0, {}},
      {"shards=2", 2, -1.0, {}},
      {"shards=hw", 0, -1.0, {}},
  };
  for (ShardRun& run : runs) {
    for (int rep = 0; rep < repeats; ++rep) {
      service::TenantRegistry registry;
      for (int t = 0; t < tenants; ++t) {
        registry.add(tenant_name(t), prototype.clone_committed());
      }
      service::ShardedOptions sharded;
      sharded.shards = run.shards;
      std::istringstream in(global_stream);
      std::ostringstream responses;
      const Clock::time_point t0 = Clock::now();
      const service::ShardedStats stats =
          service::run_sharded_stream(registry, in, responses, sharded);
      const double us = micros_since(t0);
      if (rep == 0) run.stats = stats;
      if (stats.stream.rejected != 0 || stats.unrouted != 0) {
        std::fprintf(stderr, "FATAL: %s shed/unrouted in the identity phase\n",
                     run.label);
        return 1;
      }
      const std::map<std::string, std::uint64_t> digests =
          per_tenant_digests(responses.str());
      for (const auto& [tenant, digest] : reference) {
        const auto it = digests.find(tenant);
        if (it == digests.end() || it->second != digest) {
          std::fprintf(stderr,
                       "FATAL: %s responses for %s diverge from the "
                       "sequential reference -- per-tenant byte-identity "
                       "contract violated\n",
                       run.label, tenant.c_str());
          return 1;
        }
      }
      if (run.best_us < 0.0 || us < run.best_us) run.best_us = us;
    }
    std::printf("  %-16s %12.1f us  %10.1f req/s  %5.2fx  (%llu pumps)\n",
                run.label, run.best_us,
                run.best_us > 0.0 ? 1e6 * total_requests / run.best_us : 0.0,
                run.best_us > 0.0 ? seq_best_us / run.best_us : 0.0,
                static_cast<unsigned long long>(run.stats.pumps));
  }

  // ---- Hot-tenant phase: sheds must land on the hot tenant only ---------
  const int hot_bursts = static_cast<int>(opts.get_int("hot-bursts", 8));
  const int hot_burst_len =
      static_cast<int>(opts.get_int("hot-burst-len", 24));
  const int quiet_tenants = std::min(tenants, 16);
  std::string hot_stream;
  std::vector<std::vector<std::string>> quiet_streams(
      static_cast<std::size_t>(quiet_tenants));
  {
    Rng rng = factory.stream(0xB0057ull);
    for (int b = 0; b < hot_bursts; ++b) {
      for (int i = 0; i < hot_burst_len; ++i) {
        hot_stream += "{\"tenant\": \"hot\", \"op\": \"query\"}\n";
      }
      for (int q = 0; q < quiet_tenants; ++q) {
        const std::string line = random_line(rng, tenant_name(q), base, b);
        quiet_streams[static_cast<std::size_t>(q)].push_back(line);
        hot_stream += line + "\n";
      }
    }
  }
  service::TenantRegistry hot_registry;
  hot_registry.add("hot", prototype.clone_committed());
  for (int q = 0; q < quiet_tenants; ++q) {
    hot_registry.add(tenant_name(q), prototype.clone_committed());
  }
  service::ShardedOptions hot_opts;
  hot_opts.shards = 2;
  hot_opts.stream.max_inflight = 4;
  hot_opts.pump_lines = hot_burst_len + quiet_tenants;  // one burst per window
  std::ostringstream hot_out;
  service::ShardedScheduler hot_scheduler(hot_registry, hot_out, hot_opts);
  {
    std::istringstream hot_in(hot_stream);
    std::string line;
    while (std::getline(hot_in, line)) hot_scheduler.submit_line(line);
    hot_scheduler.finish();
  }
  const service::ShardedStats hot_stats = hot_scheduler.stats();
  const int hot_rejected =
      hot_scheduler.tenant_stats(hot_registry.find("hot")).rejected;
  if (hot_rejected == 0) {
    std::fprintf(stderr,
                 "FATAL: hot tenant never shed -- the phase exercised "
                 "nothing\n");
    return 1;
  }
  if (hot_rejected != hot_stats.stream.rejected) {
    std::fprintf(stderr,
                 "FATAL: %d sheds total but %d on the hot tenant -- "
                 "backpressure leaked onto quiet tenants\n",
                 hot_stats.stream.rejected, hot_rejected);
    return 1;
  }
  // Every quiet tenant: zero sheds AND byte-identical to its solo run.
  const std::map<std::string, std::uint64_t> hot_digests =
      per_tenant_digests(hot_out.str());
  for (int q = 0; q < quiet_tenants; ++q) {
    const std::string name = tenant_name(q);
    if (hot_scheduler.tenant_stats(hot_registry.find(name)).rejected != 0) {
      std::fprintf(stderr,
                   "FATAL: quiet tenant %s was shed -- backpressure "
                   "isolation violated\n",
                   name.c_str());
      return 1;
    }
    const std::unique_ptr<service::AdmissionSession> session =
        prototype.clone_committed();
    std::ostringstream in_text;
    for (const std::string& line : quiet_streams[static_cast<std::size_t>(q)]) {
      in_text << line << "\n";
    }
    std::istringstream in(in_text.str());
    std::ostringstream responses;
    service::run_request_stream(*session, in, responses);
    const auto it = hot_digests.find(name);
    if (it == hot_digests.end() ||
        it->second != bytes_digest(strip_latency(responses.str()))) {
      std::fprintf(stderr,
                   "FATAL: quiet tenant %s diverges from its solo reference "
                   "under hot-tenant load\n",
                   name.c_str());
      return 1;
    }
  }
  std::printf("  hot-tenant phase: %d sheds, all on the hot tenant; "
              "%d quiet tenants byte-identical to their solo runs\n",
              hot_stats.stream.rejected, quiet_tenants);

  // ---- Report -----------------------------------------------------------
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"service_multitenant\",\n");
  std::fprintf(f,
               "  \"baseline\": \"per-tenant sequential run_request_stream, "
               "one committed clone per tenant\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"tenants\": %d, \"requests_per_tenant\": %d, "
               "\"total_requests\": %d, \"repeats\": %d,\n",
               tenants, per_tenant, total_requests, repeats);
  std::fprintf(f, "  \"prototype_analysis_us\": %.1f,\n", prototype_us);
  std::fprintf(f, "  \"clone_us_per_tenant\": %.3f,\n",
               clone_total_us / std::max(1, tenants));
  std::fprintf(f, "  \"sequential_us\": %.1f,\n", seq_best_us);
  std::fprintf(f, "  \"sharded\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(f,
                 "    {\"shards\": %d, \"us\": %.1f, \"speedup\": %.3f, "
                 "\"pumps\": %llu}%s\n",
                 runs[i].shards, runs[i].best_us,
                 runs[i].best_us > 0.0 ? seq_best_us / runs[i].best_us : 0.0,
                 static_cast<unsigned long long>(runs[i].stats.pumps),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"hot_phase\": {\"sheds\": %d, "
               "\"all_on_hot_tenant\": true, \"quiet_tenants\": %d, "
               "\"quiet_identical_to_solo\": true},\n",
               hot_stats.stream.rejected, quiet_tenants);
  std::fprintf(f,
               "  \"determinism\": \"per-tenant responses byte-identical "
               "modulo latency_us to each tenant's sequential solo run, at "
               "shard widths 1/2/hw (digest-checked, FATAL on mismatch)\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
