// Scaling study for the parallel analysis engines: analyze a batch of
// job-shop systems per scenario, sweeping the worker count from 1 up to the
// hardware concurrency (and at least 8, the paper-reproduction reference
// point). The baseline is the serial engine -- exactly what `rta_cli
// analyze` runs by default -- so "speedup" reads as end-to-end
// analysis-time reduction, not kernel-only time.
//
// Scenarios, so the file shows a workload on each side of the break-even:
//   * Fig. 3 (periodic) and Fig. 4 (Eq. 27 aperiodic) SPP shops of the
//     --stages x --procs x --jobs shape, iterative fixed-point engine: light
//     per-round work, where the per-round fan-out barely pays;
//   * SPNP 6 x 4 x 16 Eq. 27 shops, timed with both the iterative engine
//     (per-round processor/job fan-out) and the one-pass bounds engine
//     (dependency wavefront): heavy units, where both fan-outs pay.
//
// Every configuration's results are checksummed against the baseline; a
// mismatch aborts the bench, so a reported speedup is always a speedup of
// the SAME arithmetic (the engines' determinism contract).
//
// Output: a human-readable table on stdout and BENCH_parallel.json with one
// entry per (scenario, threads) point: wall seconds (best of --repeats, and
// the median and q1-q3 over the repeats), speedup vs baseline (best over
// best, and median over median), and the engines' counters (iterative:
// phase times and pass-skip counts; bounds: waves and units; zero for the
// other engine).
//
// Flags: --systems N (default 24)  --repeats N (default 5)
//        --stages N (default 4)    --procs N (default 2, per stage)
//        --jobs N (default 8)      --util U (default 0.7)
//        --seed S (default 42)     --out FILE (default BENCH_parallel.json)
//        --max-threads N (default max(hardware, 8))
// The shape flags apply to the Fig. 3/4 scenarios; the SPNP shape is fixed.
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/iterative.hpp"
#include "model/priority.hpp"
#include "obs/metrics.hpp"
#include "util/options.hpp"
#include "support/stats.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

using namespace rta;

namespace {

enum class Engine { kIterative, kBounds };

const char* engine_name(Engine e) {
  return e == Engine::kIterative ? "iterative" : "bounds";
}

struct Scenario {
  std::string name;
  Engine engine;
  SchedulerKind scheduler;
  ArrivalPattern pattern;
  std::size_t stages;
  std::size_t procs;  ///< per stage
  std::size_t jobs;
};

struct Point {
  int threads = 1;
  double seconds = 0.0;  ///< best of the repeats
  double median_seconds = 0.0;
  double q1_seconds = 0.0;
  double q3_seconds = 0.0;
  double speedup = 1.0;         ///< baseline best / this best
  double median_speedup = 1.0;  ///< baseline median / this median
  /// Iterative engine breakdown from the metrics registry (last repeat):
  /// wall time inside processor passes vs. arrival propagation.
  std::uint64_t pass_time_us = 0;
  std::uint64_t propagate_time_us = 0;
  std::uint64_t passes_run = 0;
  std::uint64_t passes_skipped = 0;
  /// Bounds engine: wavefront levels and units run (last repeat).
  std::uint64_t waves = 0;
  std::uint64_t units = 0;
};

std::vector<System> make_systems(const Options& opts, const Scenario& sc,
                                 std::size_t count, std::uint64_t seed) {
  JobShopConfig cfg;
  cfg.stages = sc.stages;
  cfg.processors_per_stage = sc.procs;
  cfg.jobs = sc.jobs;
  cfg.pattern = sc.pattern;
  cfg.utilization = opts.get_double("util", 0.7);
  cfg.window_periods = 4.0;
  cfg.deadline.period_multiple = 4.0;
  cfg.scheduler = sc.scheduler;

  const RngFactory factory(seed);
  std::vector<System> systems;
  systems.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = factory.stream(static_cast<std::uint64_t>(i));
    System system = generate_jobshop(cfg, rng);
    assign_proportional_deadline_monotonic(system);
    systems.push_back(std::move(system));
  }
  return systems;
}

/// Order-sensitive digest of every reported bound; bitwise equality of the
/// digests across configurations is the determinism check.
std::uint64_t result_digest(std::uint64_t h, const AnalysisResult& r) {
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

/// Analyze the whole batch through one analyzer (so its pool amortizes
/// across systems); returns the best, median and quartile wall times over
/// the repeats and the digest of the last repeat.
template <typename Analyzer>
Point run_config(const std::vector<System>& systems, int threads, int repeats,
                 std::uint64_t* digest_out) {
  Point point;
  point.threads = threads;
  std::vector<double> times;
  for (int rep = 0; rep < repeats; ++rep) {
    // Every repeat carries the same metrics sink, so the timing comparison
    // across thread counts stays apples-to-apples (the sink's overhead is
    // bounded by the micro_analysis null-sink budget anyway).
    obs::MetricsRegistry registry;
    AnalysisConfig cfg;
    cfg.threads = threads;
    cfg.observer.metrics = &registry;
    const Analyzer analyzer(cfg);
    std::uint64_t digest = 0xC0FFEEull;
    const auto start = std::chrono::steady_clock::now();
    for (const System& system : systems) {
      digest = result_digest(digest, analyzer.analyze(system));
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    times.push_back(elapsed.count());
    *digest_out = digest;
    const obs::MetricsSnapshot snap = registry.snapshot();
    auto counter = [&](const char* name) -> std::uint64_t {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0u : it->second;
    };
    point.pass_time_us = counter("iterative.pass_time_us");
    point.propagate_time_us = counter("iterative.propagate_time_us");
    point.passes_run = counter("iterative.passes_run");
    point.passes_skipped = counter("iterative.passes_skipped");
    point.waves = counter("bounds.waves");
    point.units = counter("bounds.units");
  }
  point.seconds = quantile(times, 0.0);
  point.median_seconds = quantile(times, 0.5);
  point.q1_seconds = quantile(times, 0.25);
  point.q3_seconds = quantile(times, 0.75);
  return point;
}

void write_json(const std::string& path, const Options& opts,
                std::size_t system_count, int repeats,
                const std::vector<std::pair<Scenario, std::vector<Point>>>&
                    scenarios) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"parallel_scaling\",\n");
  std::fprintf(f,
               "  \"baseline\": {\"threads\": 1, \"note\": \"serial engine; "
               "speedup is best over best, median_speedup median over "
               "median, both relative to this\"},\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"systems_per_scenario\": %zu,\n", system_count);
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"utilization\": %g,\n", opts.get_double("util", 0.7));
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const auto& [scenario, points] = scenarios[s];
    std::fprintf(f,
                 "    {\n      \"name\": \"%s\", \"engine\": \"%s\", "
                 "\"scheduler\": \"%s\",\n      \"stages\": %zu, "
                 "\"processors_per_stage\": %zu, \"jobs\": %zu,\n"
                 "      \"points\": [\n",
                 scenario.name.c_str(), engine_name(scenario.engine),
                 to_string(scenario.scheduler), scenario.stages,
                 scenario.procs, scenario.jobs);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "        {\"threads\": %d, "
                   "\"seconds\": %.6f, \"median_seconds\": %.6f, "
                   "\"q1_seconds\": %.6f, \"q3_seconds\": %.6f, "
                   "\"speedup\": %.3f, \"median_speedup\": %.3f, "
                   "\"phase_us\": {\"processor_passes\": %llu, "
                   "\"propagation\": %llu}, "
                   "\"passes_run\": %llu, \"passes_skipped\": %llu, "
                   "\"waves\": %llu, \"units\": %llu}%s\n",
                   p.threads, p.seconds, p.median_seconds, p.q1_seconds,
                   p.q3_seconds, p.speedup, p.median_speedup,
                   static_cast<unsigned long long>(p.pass_time_us),
                   static_cast<unsigned long long>(p.propagate_time_us),
                   static_cast<unsigned long long>(p.passes_run),
                   static_cast<unsigned long long>(p.passes_skipped),
                   static_cast<unsigned long long>(p.waves),
                   static_cast<unsigned long long>(p.units),
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n",
                 s + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::size_t system_count =
      static_cast<std::size_t>(opts.get_int("systems", 24));
  const int repeats = static_cast<int>(opts.get_int("repeats", 5));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const std::string out = opts.get("out", "BENCH_parallel.json");

  const unsigned hw = std::thread::hardware_concurrency();
  const long long max_threads =
      opts.get_int("max-threads", hw > 8 ? static_cast<long long>(hw) : 8);
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) {
    thread_counts.push_back(static_cast<int>(max_threads));
  }

  std::printf("Parallel scaling: %zu job-shop systems per scenario, best "
              "of %d repeats (hardware threads: %u)\n",
              system_count, repeats, hw);

  const auto shape = [&](const char* flag, long long def) {
    return static_cast<std::size_t>(opts.get_int(flag, def));
  };
  const std::size_t stages = shape("stages", 4);
  const std::size_t procs = shape("procs", 2);
  const std::size_t jobs = shape("jobs", 8);
  const std::vector<Scenario> scenario_defs = {
      {"fig3_periodic_jobshop", Engine::kIterative, SchedulerKind::kSpp,
       ArrivalPattern::kPeriodic, stages, procs, jobs},
      {"fig4_aperiodic_jobshop", Engine::kIterative, SchedulerKind::kSpp,
       ArrivalPattern::kAperiodic, stages, procs, jobs},
      {"spnp_eq27_6x4x16", Engine::kIterative, SchedulerKind::kSpnp,
       ArrivalPattern::kAperiodic, 6, 4, 16},
      {"spnp_eq27_6x4x16", Engine::kBounds, SchedulerKind::kSpnp,
       ArrivalPattern::kAperiodic, 6, 4, 16},
  };

  std::vector<std::pair<Scenario, std::vector<Point>>> results;
  for (const Scenario& scenario : scenario_defs) {
    const std::vector<System> systems =
        make_systems(opts, scenario, system_count, seed);

    std::printf("\n--- %s (%s engine) ---\n", scenario.name.c_str(),
                engine_name(scenario.engine));
    std::printf("%8s %10s %10s %17s %8s %8s %10s %10s %8s %6s %6s\n",
                "threads", "seconds", "median", "q1-q3", "speedup",
                "med_spd", "pass_ms", "prop_ms", "skipped", "waves",
                "units");

    // thread_counts starts at 1: the first point is the serial baseline.
    std::uint64_t baseline_digest = 0;
    double baseline_seconds = 0.0;
    double baseline_median = 0.0;
    std::vector<Point> points;
    for (const int threads : thread_counts) {
      std::uint64_t digest = 0;
      Point p = scenario.engine == Engine::kIterative
                    ? run_config<IterativeBoundsAnalyzer>(systems, threads,
                                                          repeats, &digest)
                    : run_config<BoundsAnalyzer>(systems, threads, repeats,
                                                 &digest);
      if (points.empty()) {
        baseline_digest = digest;
        baseline_seconds = p.seconds;
        baseline_median = p.median_seconds;
      } else if (digest != baseline_digest) {
        std::fprintf(stderr,
                     "FATAL: results at threads=%d diverge from the serial "
                     "baseline -- determinism contract violated\n",
                     threads);
        return 1;
      }
      p.speedup = baseline_seconds / p.seconds;
      p.median_speedup = baseline_median / p.median_seconds;
      std::printf(
          "%8d %10.4f %10.4f %8.4f-%-8.4f %8.2f %8.2f %10.1f %10.1f %8llu "
          "%6llu %6llu\n",
          threads, p.seconds, p.median_seconds, p.q1_seconds, p.q3_seconds,
          p.speedup, p.median_speedup,
          static_cast<double>(p.pass_time_us) / 1000.0,
          static_cast<double>(p.propagate_time_us) / 1000.0,
          static_cast<unsigned long long>(p.passes_skipped),
          static_cast<unsigned long long>(p.waves),
          static_cast<unsigned long long>(p.units));
      points.push_back(p);
    }
    results.emplace_back(scenario, std::move(points));
  }

  write_json(out, opts, system_count, repeats, results);
  return 0;
}
