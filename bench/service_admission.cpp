// Single-job admission latency: incremental AdmissionSession vs. full
// re-analysis, on the Fig. 3 periodic job shop (stages 4, 2 processors per
// stage, 8 jobs, utilization 0.7, SPP with PDM priorities -- the same
// configuration as parallel_scaling.cpp).
//
// The baseline is what a naive admission controller does: rebuild the
// candidate system and run a fresh full BoundsAnalyzer pass per request --
// with a long-lived analyzer, so its ThreadPool amortizes (a generous
// baseline). The service answers the same requests through one
// AdmissionSession with a pinned horizon, recomputing only the dirty
// closure of the candidate job.
//
// Every candidate's bounds are checked bit-identical between the two paths
// before any timing is reported; a mismatch aborts the bench (the service's
// determinism contract, tests/test_service.cpp).
//
// A second phase drives a read-heavy polling stream (default 400 requests,
// 90% read-only: clients re-probing pending candidates between
// reconfigurations) through the sequential reference runner and through the
// batching RequestScheduler, each over N trials on fresh sessions. The
// scheduler's wins here are read coalescing (identical probes in a batch
// run once) and batch-amortized barriers. Every trial's responses are
// digest-checked byte-identical (modulo latency_us) against the sequential
// run before any throughput number is reported.
//
// A third phase re-runs the scheduler stream with the full observability
// path attached (per-request span trees, latency histograms, one live stats
// snapshot + Prometheus render inside the timer) and reports the overhead
// of its median against the observer-off median; the bar is <= 5%.
//
// Output: a per-candidate latency table on stdout and BENCH_service.json
// with median/p90/max latencies per path, the median speedup, the median
// and interquartile range of each stream driver's trials next to the
// host's hardware thread count, and the observability overhead fraction.
// The acceptance bars are a >= 2x median speedup for single-job admits, a
// >= 2x stream throughput for the scheduler over the sequential runner, and
// <= 5% observability overhead.
//
// Flags: --candidates N (default 40)  --repeats N (default 5)
//        --stages N (default 4)       --procs N (default 2, per stage)
//        --jobs N (default 8)         --util U (default 0.7)
//        --seed S (default 42)        --threads N (default 1; sizes the
//                                     baseline analyzer's pool only -- the
//                                     session analyzes serially)
//        --stream-requests N (default 400)
//        --stream-repeats N (default 5; trials per stream driver)
//        --out FILE (default BENCH_service.json)
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "io/json.hpp"
#include "model/priority.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/admission_session.hpp"
#include "service/metrics_export.hpp"
#include "service/request_runner.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

using namespace rta;

namespace {

System make_base(const Options& opts, std::uint64_t seed) {
  JobShopConfig cfg;
  cfg.stages = static_cast<std::size_t>(opts.get_int("stages", 4));
  cfg.processors_per_stage =
      static_cast<std::size_t>(opts.get_int("procs", 2));
  cfg.jobs = static_cast<std::size_t>(opts.get_int("jobs", 8));
  cfg.pattern = ArrivalPattern::kPeriodic;
  cfg.utilization = opts.get_double("util", 0.7);
  cfg.window_periods = 4.0;
  cfg.deadline.period_multiple = 4.0;
  cfg.scheduler = SchedulerKind::kSpp;
  Rng rng(seed);
  System system = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(system);
  return system;
}

/// Candidate jobs in the style of online admission requests: short chains,
/// modest demand, lowest priority on every processor they visit.
std::vector<Job> make_candidates(const System& base, std::size_t count,
                                 std::uint64_t seed) {
  const RngFactory factory(seed ^ 0xAD317ull);
  std::vector<Job> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = factory.stream(static_cast<std::uint64_t>(i));
    Job job;
    job.name = "cand" + std::to_string(i);
    const int hops = rng.uniform_int(1, 3);
    double exec_total = 0.0;
    for (int h = 0; h < hops; ++h) {
      Subjob s;
      s.processor = rng.uniform_int(0, base.processor_count() - 1);
      s.exec_time = rng.uniform(0.02, 0.12);
      exec_total += s.exec_time;
      job.chain.push_back(s);
    }
    const Time period = rng.uniform(2.0, 6.0);
    const Time window = std::max<Time>(base.last_release(), 4.0 * period);
    job.arrivals = ArrivalSequence::periodic(period, window);
    job.deadline = exec_total * rng.uniform(6.0, 20.0) + period;
    service::assign_lowest_priorities(base, job);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::uint64_t result_digest(const AnalysisResult& r) {
  std::uint64_t h = 0xC0FFEEull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(r.ok ? 1u : 0u);
  for (const JobReport& j : r.jobs) {
    mix(std::bit_cast<std::uint64_t>(j.wcrt));
    for (const SubjobReport& hop : j.hops) {
      mix(std::bit_cast<std::uint64_t>(hop.local_bound));
    }
  }
  return h;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// Median and quartiles of a set of trial times.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

Spread spread(const std::vector<double>& us) {
  return {percentile(us, 0.5), percentile(us, 0.25), percentile(us, 0.75)};
}

void print_spread(std::FILE* f, const char* key, const Spread& s) {
  std::fprintf(f,
               "  \"%s\": {\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f, "
               "\"iqr\": %.1f},\n",
               key, s.median, s.q1, s.q3, s.q3 - s.q1);
}

struct PathStats {
  double median_us = 0.0;
  double p90_us = 0.0;
  double max_us = 0.0;
};

PathStats summarize(const std::vector<double>& per_candidate_us) {
  PathStats s;
  s.median_us = percentile(per_candidate_us, 0.5);
  s.p90_us = percentile(per_candidate_us, 0.9);
  s.max_us = *std::max_element(per_candidate_us.begin(),
                               per_candidate_us.end());
  return s;
}

/// Serialize a request line with no explicit priorities and no explicit id,
/// so every driver applies the same lowest-priority / auto-id policy.
std::string job_request_line(const std::string& op, const Job& job) {
  json::Value req;
  req.set("op", op);
  json::Value jv;
  jv.set("name", job.name);
  jv.set("deadline", job.deadline);
  json::Value::Array chain;
  for (const Subjob& s : job.chain) {
    json::Value hop;
    hop.set("processor", s.processor);
    hop.set("exec", s.exec_time);
    chain.push_back(std::move(hop));
  }
  jv.set("chain", json::Value(std::move(chain)));
  json::Value::Array arrivals;
  for (Time t : job.arrivals.releases()) arrivals.push_back(json::Value(t));
  jv.set("arrivals", json::Value(std::move(arrivals)));
  req.set("job", std::move(jv));
  return req.dump();
}

/// Read-heavy polling stream: each block of 20 requests opens with one
/// admit and its matching remove (coalesced into one mutation batch), then
/// 18 read-only requests that re-probe a working set of three candidates
/// plus a status query -- the polling shape online admission traffic takes
/// (clients re-checking pending candidates between reconfigurations) and
/// the one the scheduler's read coalescing exploits. Read fraction 90%.
std::string build_stream(const System& base, int n, std::uint64_t seed,
                         double* read_fraction_out) {
  const std::vector<Job> pool = make_candidates(
      base, static_cast<std::size_t>(std::max(n, 1)), seed ^ 0x57AEull);
  std::ostringstream out;
  int reads = 0;
  std::vector<std::string> probes;
  for (int i = 0; i < n; ++i) {
    const int slot = i % 20;
    if (slot == 0) {
      Job job = pool[static_cast<std::size_t>(i)];
      job.name = "stream_adm" + std::to_string(i);
      out << job_request_line("admit", job) << "\n";
      // Refresh the working set probed through the rest of this block.
      probes.clear();
      for (int c = 1; c <= 3; ++c) {
        probes.push_back(job_request_line(
            "what_if", pool[static_cast<std::size_t>((i + c) % n)]));
      }
      probes.push_back("{\"op\": \"query\"}");
    } else if (slot == 1) {
      out << "{\"op\": \"remove\", \"name\": \"stream_adm" << (i - 1)
          << "\"}\n";
    } else {
      out << probes[static_cast<std::size_t>(slot) % probes.size()] << "\n";
      ++reads;
    }
  }
  if (read_fraction_out != nullptr && n > 0) {
    *read_fraction_out = static_cast<double>(reads) / n;
  }
  return out.str();
}

/// Drop the (timing-dependent) latency_us field so response payloads can be
/// compared byte-for-byte across drivers.
std::string strip_latency(const std::string& responses) {
  static const std::regex kLatency(",\"latency_us\":[^,}]+");
  return std::regex_replace(responses, kLatency, "");
}

std::uint64_t bytes_digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::size_t candidate_count =
      static_cast<std::size_t>(opts.get_int("candidates", 40));
  const int repeats = static_cast<int>(opts.get_int("repeats", 5));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const int threads = static_cast<int>(opts.get_int("threads", 1));
  const std::string out = opts.get("out", "BENCH_service.json");

  const System base = make_base(opts, seed);
  const std::vector<Job> candidates =
      make_candidates(base, candidate_count, seed);

  // Both paths pin the same horizon, so the comparison (and the bit-identity
  // check) is horizon-for-horizon.
  AnalysisConfig analysis;
  analysis.threads = threads;
  analysis.horizon = default_horizon(base, AnalysisConfig{});

  service::SessionConfig session_cfg;
  session_cfg.analysis = analysis;
  service::AdmissionSession session(base, session_cfg);
  if (!session.last().ok) {
    std::fprintf(stderr, "base analysis failed: %s\n",
                 session.last().error.c_str());
    return 1;
  }
  BoundsAnalyzer full(analysis);  // long-lived: the pool amortizes

  std::printf("Single-job admission latency on the Fig. 3 job shop "
              "(%d jobs, %d processors, util %.2f, threads %d), "
              "%zu candidates, best of %d repeats\n",
              base.job_count(), base.processor_count(),
              opts.get_double("util", 0.7), threads, candidate_count,
              repeats);

  std::vector<double> full_us(candidate_count, -1.0);
  std::vector<double> incr_us(candidate_count, -1.0);
  std::vector<int> dirty(candidate_count, 0);
  int total_subjobs = 0;
  int incremental_hits = 0;

  using Clock = std::chrono::steady_clock;
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      System candidate_system = base;  // rebuild outside the timer: generous
      candidate_system.add_job(candidates[i]);

      const Clock::time_point f0 = Clock::now();
      const AnalysisResult full_result = full.analyze(candidate_system);
      const std::chrono::duration<double, std::micro> f_us =
          Clock::now() - f0;

      const Clock::time_point s0 = Clock::now();
      const service::Decision d = session.what_if(candidates[i]);
      const std::chrono::duration<double, std::micro> s_us =
          Clock::now() - s0;

      if (!d.ok || !full_result.ok ||
          result_digest(full_result) != result_digest(d.analysis)) {
        std::fprintf(stderr,
                     "FATAL: candidate %zu diverges from full re-analysis "
                     "-- determinism contract violated\n",
                     i);
        return 1;
      }
      if (full_us[i] < 0.0 || f_us.count() < full_us[i]) {
        full_us[i] = f_us.count();
      }
      if (incr_us[i] < 0.0 || s_us.count() < incr_us[i]) {
        incr_us[i] = s_us.count();
      }
      if (rep == 0) {
        dirty[i] = d.dirty_subjobs;
        total_subjobs = d.total_subjobs;
        if (d.incremental) ++incremental_hits;
      }
    }
  }

  const PathStats fs = summarize(full_us);
  const PathStats is = summarize(incr_us);
  const double median_speedup =
      is.median_us > 0.0 ? fs.median_us / is.median_us : 0.0;

  std::vector<double> per_candidate_speedup(candidate_count, 0.0);
  std::printf("\n%10s %6s %12s %12s %9s\n", "candidate", "dirty", "full_us",
              "session_us", "speedup");
  for (std::size_t i = 0; i < candidate_count; ++i) {
    per_candidate_speedup[i] =
        incr_us[i] > 0.0 ? full_us[i] / incr_us[i] : 0.0;
    std::printf("%10zu %6d %12.1f %12.1f %8.1fx\n", i, dirty[i], full_us[i],
                incr_us[i], per_candidate_speedup[i]);
  }
  std::printf("\nfull re-analysis:  median %.1f us, p90 %.1f us, max %.1f us\n",
              fs.median_us, fs.p90_us, fs.max_us);
  std::printf("admission session: median %.1f us, p90 %.1f us, max %.1f us\n",
              is.median_us, is.p90_us, is.max_us);
  std::printf("median speedup: %.2fx (%d/%zu candidates incremental)\n",
              median_speedup, incremental_hits, candidate_count);
  if (median_speedup < 2.0) {
    std::fprintf(stderr,
                 "WARNING: median speedup %.2fx below the 2x acceptance "
                 "bar\n",
                 median_speedup);
  }

  // ---- Stream phase: sequential runner vs. RequestScheduler ------------
  const int stream_requests =
      static_cast<int>(opts.get_int("stream-requests", 400));
  const int stream_trials =
      std::max(1, static_cast<int>(opts.get_int("stream-repeats", 5)));
  double read_fraction = 0.0;
  const std::string stream =
      build_stream(base, stream_requests, seed, &read_fraction);

  // One stream driver timed over stream_trials fresh sessions; false when
  // two trials' responses differ. With `observed`, a MetricsRegistry and
  // Tracer ride along and one live stats snapshot + Prometheus render runs
  // inside the timer -- the full introspection path `serve --metrics-prom`
  // exercises.
  struct StreamRun {
    StreamRun(const char* l, bool s, bool o)
        : label(l), scheduled(s), observed(o) {}
    const char* label;
    bool scheduled;
    bool observed;
    std::vector<double> us;
    std::uint64_t digest = 0;
    service::RunnerStats stats;
    std::size_t prom_bytes = 0;
  };
  const auto time_stream = [&](StreamRun& run) {
    for (int trial = 0; trial < stream_trials; ++trial) {
      obs::MetricsRegistry registry;
      obs::Tracer tracer;
      service::SessionConfig cfg = session_cfg;
      if (run.observed) {
        cfg.analysis.observer = obs::Observer{&registry, &tracer};
      }
      service::AdmissionSession stream_session(base, cfg);
      std::istringstream in(stream);
      std::ostringstream responses;
      const Clock::time_point t0 = Clock::now();
      run.stats = run.scheduled
                      ? service::run_request_stream(stream_session, in,
                                                    responses,
                                                    service::StreamOptions{})
                      : service::run_request_stream(stream_session, in,
                                                    responses);
      if (run.observed) {
        run.prom_bytes =
            service::to_prometheus_text(registry.snapshot()).size();
      }
      const std::chrono::duration<double, std::micro> us = Clock::now() - t0;
      run.us.push_back(us.count());
      const std::uint64_t digest = bytes_digest(strip_latency(responses.str()));
      if (trial > 0 && digest != run.digest) return false;
      run.digest = digest;
    }
    return true;
  };

  std::printf("\nStream phase: %d requests, %.0f%% read-only, %d trials "
              "(median, IQR)\n",
              stream_requests, 100.0 * read_fraction, stream_trials);
  StreamRun sequential("sequential", false, false);
  StreamRun scheduler("scheduler", true, false);
  StreamRun observed("scheduler+obs", true, true);
  for (StreamRun* run : {&sequential, &scheduler, &observed}) {
    if (!time_stream(*run)) {
      std::fprintf(stderr, "FATAL: %s responses differ across trials\n",
                   run->label);
      return 1;
    }
    if (run->digest != sequential.digest ||
        run->stats.requests != sequential.stats.requests ||
        run->stats.errors != sequential.stats.errors) {
      std::fprintf(stderr,
                   "FATAL: %s responses diverge from the sequential runner "
                   "-- determinism contract violated\n",
                   run->label);
      return 1;
    }
    const Spread t = spread(run->us);
    std::printf("  %-14s %10.1f us (IQR %8.1f)  %8.1f req/s  "
                "(%d responses, %d errors, %d coalesced)\n",
                run->label, t.median, t.q3 - t.q1,
                t.median > 0.0 ? 1e6 * stream_requests / t.median : 0.0,
                run->stats.requests, run->stats.errors,
                run->stats.coalesced);
  }
  const Spread seq_us = spread(sequential.us);
  const Spread sched_us = spread(scheduler.us);
  const Spread obs_us = spread(observed.us);
  const double stream_speedup =
      sched_us.median > 0.0 ? seq_us.median / sched_us.median : 0.0;
  std::printf("  scheduler speedup over sequential (medians): %.2fx\n",
              stream_speedup);
  if (stream_speedup < 2.0) {
    std::fprintf(stderr,
                 "WARNING: stream speedup %.2fx below the 2x acceptance "
                 "bar\n",
                 stream_speedup);
  }

  // ---- Observability overhead ------------------------------------------
  // The acceptance bar is <= 5% overhead of the observed median against the
  // observer-off scheduler median, and the responses stayed byte-identical
  // above: observability never changes what the service answers.
  const double obs_overhead_fraction =
      sched_us.median > 0.0 ? obs_us.median / sched_us.median - 1.0 : 0.0;
  std::printf("\nObservability overhead (tracing + metrics + stats render):\n");
  std::printf("  observer off %10.1f us, observer on %10.1f us: %+.1f%% "
              "(%zu-byte Prometheus render)\n",
              sched_us.median, obs_us.median, 100.0 * obs_overhead_fraction,
              observed.prom_bytes);
  if (obs_overhead_fraction > 0.05) {
    std::fprintf(stderr,
                 "WARNING: observability overhead %.1f%% above the 5%% "
                 "acceptance bar\n",
                 100.0 * obs_overhead_fraction);
  }

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"service_admission\",\n");
  std::fprintf(f,
               "  \"scenario\": \"fig3_periodic_jobshop\",\n"
               "  \"baseline\": \"fresh full BoundsAnalyzer pass per "
               "candidate (long-lived analyzer, pinned horizon)\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"stages\": %lld, \"processors_per_stage\": %lld, "
               "\"jobs\": %lld, \"utilization\": %g, \"threads\": %d,\n",
               opts.get_int("stages", 4), opts.get_int("procs", 2),
               opts.get_int("jobs", 8), opts.get_double("util", 0.7),
               threads);
  std::fprintf(f, "  \"candidates\": %zu, \"repeats\": %d,\n",
               candidate_count, repeats);
  std::fprintf(f, "  \"total_subjobs\": %d,\n", total_subjobs);
  std::fprintf(f, "  \"incremental_candidates\": %d,\n", incremental_hits);
  std::fprintf(f,
               "  \"full_us\": {\"median\": %.3f, \"p90\": %.3f, "
               "\"max\": %.3f},\n",
               fs.median_us, fs.p90_us, fs.max_us);
  std::fprintf(f,
               "  \"session_us\": {\"median\": %.3f, \"p90\": %.3f, "
               "\"max\": %.3f},\n",
               is.median_us, is.p90_us, is.max_us);
  std::fprintf(f, "  \"median_speedup\": %.3f,\n", median_speedup);
  std::fprintf(f, "  \"p90_speedup\": %.3f,\n",
               percentile(per_candidate_speedup, 0.9));
  std::fprintf(f,
               "  \"stream_requests\": %d, \"stream_read_fraction\": %.3f, "
               "\"stream_trials\": %d,\n",
               stream_requests, read_fraction, stream_trials);
  print_spread(f, "stream_sequential_us", seq_us);
  print_spread(f, "stream_scheduler_us", sched_us);
  std::fprintf(f, "  \"stream_speedup\": %.3f, \"stream_coalesced\": %d,\n",
               stream_speedup, scheduler.stats.coalesced);
  std::fprintf(f, "  \"stream_digest_identical\": true,\n");
  print_spread(f, "obs_stream_us", obs_us);
  std::fprintf(f,
               "  \"obs_overhead_fraction\": %.4f, "
               "\"obs_overhead_bar\": 0.05, \"obs_prom_bytes\": %zu,\n",
               obs_overhead_fraction, observed.prom_bytes);
  std::fprintf(f,
               "  \"determinism\": \"every candidate's bounds bit-identical "
               "between paths; stream responses byte-identical modulo "
               "latency_us across all drivers (digest-checked)\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
