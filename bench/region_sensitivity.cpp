// Parametric region sensitivity: incremental RegionAnalyzer probing vs. a
// fresh full analysis per probe, on the Fig. 3 periodic job shop (stages 4,
// 2 processors per stage, 8 jobs, utilization 0.7, SPP with PDM priorities
// -- the same configuration as service_admission.cpp).
//
// The benched scenario is the service's what_if_region flow: admit a batch
// of light candidate jobs at lowest priority (service_admission.cpp's
// online-admission shape), then sweep each newcomer's headroom -- how far
// can its execution demand scale, how many simultaneous burst releases can
// it absorb, before the shop stops being schedulable. A region query
// binary-searches that boundary and answers every probe through the
// admission session's dirty-closure path: clone the committed session,
// remove the target once, then each probe is what_if(transformed target).
// A lowest-priority newcomer's dirty closure is just its own subjobs, so
// this is where incremental probing pays hardest. A second query class
// sweeps the original (established, mid-priority) jobs, whose closures
// span most of the shop -- reported alongside as the honest worst case.
//
// The primary baseline is the literal fresh-per-point analysis a naive
// capacity planner runs (`rta_cli analyze` per grid point): the *same*
// bisection, each probe answered by RegionAnalyzer::apply_axes + a brand
// new BoundsAnalyzer pass with nothing carried over. A second baseline keeps
// one long-lived BoundsAnalyzer across all probes (the service_admission.cpp
// convention); it is reported alongside but the acceptance bar applies to
// fresh-per-point.
//
// All paths probe identical parameter values in identical order, so their
// boundaries must agree exactly: empty/open flags, feasible/infeasible
// endpoints bit-for-bit, and probe counts. A mismatch aborts the bench
// (the determinism contract of docs/api.md; tests/test_region.cpp
// certifies the same equivalence per probe).
//
// A last section times the column grain: one 2-D global-scope query
// (exec_scale x rate_scale over every job, so each probe is a full-system
// analysis) run with its columns in sequence and on --threads column
// workers. The two results must serialize to the same bytes.
//
// Output: a per-query latency table on stdout and BENCH_region.json with
// median/p90/max latencies per path, the median speedups per query class,
// the fraction of probes answered on the incremental dirty-closure path,
// and the column sweep's median and q1-q3 wall times at both widths. The
// acceptance bar is a >= 3x median speedup over fresh-per-point on the
// candidate sweeps.
//
// Flags: --repeats N (default 3)   --stages N (default 4)
//        --procs N (default 2, per stage)  --jobs N (default 8)
//        --candidates N (default 8, admitted before querying)
//        --util U (default 0.7)    --seed S (default 42)
//        --threads N (default 1; also the column sweep's parallel width)
//        --tolerance T (default 0.001)
//        --out FILE (default BENCH_region.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "service/region.hpp"
#include "model/priority.hpp"
#include "service/admission_session.hpp"
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
/// modest demand, lowest priority on every processor they visit (the same
/// shape service_admission.cpp admits).
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
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The baseline planner: RegionAnalyzer's exact bisection schedule, each
/// probe answered by apply_axes + a full analysis of the transformed
/// system -- through `warm` when given (one analyzer retained across every
/// probe and query), else through a brand new BoundsAnalyzer per probe
/// (the literal fresh-per-point planner). Mirrors RegionAnalyzer::bisect
/// so that, given equal per-probe verdicts (the determinism contract), the
/// search trajectories -- and therefore the reported boundaries and probe
/// counts -- are identical.
RegionBoundary fresh_bisect(const System& base, const RegionQuery& query,
                            const AnalysisConfig& analysis,
                            BoundsAnalyzer* warm, bool* failed) {
  const RegionAxis& axis = query.axes[0];
  const bool integral = axis.param == RegionParam::kBurst;
  RegionBoundary b;
  auto probe = [&](double v) {
    System sys;
    std::string error;
    if (!RegionAnalyzer::apply_axes(base, query, {v}, sys, error)) {
      *failed = true;
      return false;
    }
    AnalysisResult r;
    if (warm != nullptr) {
      r = warm->analyze(sys);
    } else {
      BoundsAnalyzer fresh(analysis);
      r = fresh.analyze(sys);
    }
    if (!r.ok) {
      *failed = true;
      return false;
    }
    ++b.probes;
    return r.all_schedulable();
  };
  if (!probe(axis.lo)) {
    b.empty = !*failed;
    b.infeasible = axis.lo;
    return b;
  }
  b.feasible = axis.lo;
  if (probe(axis.hi)) {
    b.open = !*failed;
    b.feasible = axis.hi;
    return b;
  }
  if (*failed) return b;
  b.infeasible = axis.hi;
  for (int iter = 0; iter < 64; ++iter) {
    const double gap = b.infeasible - b.feasible;
    if (integral ? gap <= 1.0 : gap <= query.tolerance) break;
    const double mid = integral
                           ? std::floor(0.5 * (b.feasible + b.infeasible))
                           : 0.5 * (b.feasible + b.infeasible);
    if (!(mid > b.feasible) || !(mid < b.infeasible)) break;
    if (probe(mid)) {
      b.feasible = mid;
    } else {
      b.infeasible = mid;
    }
    if (*failed) break;
  }
  return b;
}

bool boundaries_equal(const RegionBoundary& a, const RegionBoundary& c) {
  return a.empty == c.empty && a.open == c.open && a.probes == c.probes &&
         (a.empty || a.feasible == c.feasible) &&
         (a.open || a.infeasible == c.infeasible);
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

const char* boundary_note(const RegionBoundary& b, char* buf,
                          std::size_t len) {
  if (b.empty) {
    std::snprintf(buf, len, "empty");
  } else if (b.open) {
    std::snprintf(buf, len, "open@%g", b.feasible);
  } else {
    std::snprintf(buf, len, "%.6g", b.feasible);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const int repeats = static_cast<int>(opts.get_int("repeats", 3));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 42));
  const int threads = static_cast<int>(opts.get_int("threads", 1));
  const double tolerance = opts.get_double("tolerance", 1e-3);
  const std::string out = opts.get("out", "BENCH_region.json");

  const System base = make_base(opts, seed);
  const std::size_t candidate_count =
      static_cast<std::size_t>(opts.get_int("candidates", 8));

  // The committed shop a planner sweeps: the Fig. 3 base plus admitted
  // lowest-priority newcomers (the service's admit -> what_if_region flow).
  System committed = base;
  for (Job job : make_candidates(base, candidate_count, seed)) {
    service::assign_lowest_priorities(committed, job);
    committed.add_job(std::move(job));
  }

  // Both paths pin the same horizon, so every probe (and the boundary
  // equality check) is horizon-for-horizon.
  service::SessionConfig session_cfg;
  session_cfg.analysis.threads = threads;
  session_cfg.analysis.horizon = default_horizon(committed, AnalysisConfig{});

  RegionAnalyzer region(committed, session_cfg);  // long-lived, like service
  BoundsAnalyzer warm(session_cfg.analysis);  // long-lived across probes

  // One exec_scale and one burst query per target: the two capacity
  // questions a planner sweeps ("how much heavier can this job get", "how
  // many simultaneous releases can it absorb"). Candidate sweeps are the
  // service scenario and carry the acceptance bar; established-job sweeps
  // are the worst case (their dirty closures span most of the shop).
  struct QueryRun {
    RegionQuery query;
    std::string label;
    bool candidate = false;
    RegionBoundary boundary;
    double incr_us = -1.0;
    double fresh_us = -1.0;
    double warm_us = -1.0;
    int probes = 0;
    int incremental_probes = 0;
  };
  std::vector<QueryRun> queries;
  for (int j = 0; j < committed.job_count(); ++j) {
    for (const RegionParam param :
         {RegionParam::kExecScale, RegionParam::kBurst}) {
      QueryRun run;
      RegionAxis axis;
      axis.param = param;
      axis.scope = RegionScope::kJob;
      region_default_bracket(param, axis.lo, axis.hi);
      run.query.target = committed.job(j).name;
      run.query.axes.push_back(axis);
      run.query.tolerance = tolerance;
      run.candidate = j >= base.job_count();
      run.label = run.query.target + "/" + region_param_name(param);
      queries.push_back(std::move(run));
    }
  }

  std::printf("Region boundary search on the Fig. 3 job shop "
              "(%d established + %zu admitted jobs, %d processors, "
              "util %.2f, threads %d), %zu queries, best of %d repeats\n",
              base.job_count(), candidate_count, base.processor_count(),
              opts.get_double("util", 0.7), threads, queries.size(),
              repeats);

  using Clock = std::chrono::steady_clock;
  for (int rep = 0; rep < repeats; ++rep) {
    for (QueryRun& run : queries) {
      const Clock::time_point i0 = Clock::now();
      const RegionResult r = region.run(run.query);
      const std::chrono::duration<double, std::micro> i_us =
          Clock::now() - i0;
      if (!r.ok) {
        std::fprintf(stderr, "FATAL: query %s failed: %s\n",
                     run.label.c_str(), r.error.c_str());
        return 1;
      }

      bool failed = false;
      const Clock::time_point f0 = Clock::now();
      const RegionBoundary fresh = fresh_bisect(
          committed, r.query, session_cfg.analysis, nullptr, &failed);
      const std::chrono::duration<double, std::micro> f_us =
          Clock::now() - f0;
      bool warm_failed = false;
      const Clock::time_point w0 = Clock::now();
      const RegionBoundary warmed = fresh_bisect(
          committed, r.query, session_cfg.analysis, &warm, &warm_failed);
      const std::chrono::duration<double, std::micro> w_us =
          Clock::now() - w0;
      if (failed || warm_failed) {
        std::fprintf(stderr, "FATAL: baseline for %s failed\n",
                     run.label.c_str());
        return 1;
      }
      if (!boundaries_equal(r.boundary, fresh) ||
          !boundaries_equal(r.boundary, warmed)) {
        std::fprintf(stderr,
                     "FATAL: query %s boundary diverges from a baseline "
                     "-- determinism contract violated\n",
                     run.label.c_str());
        return 1;
      }
      if (rep == 0) {
        run.boundary = r.boundary;
        run.probes = r.probes;
        run.incremental_probes = r.incremental_probes;
      }
      if (run.incr_us < 0.0 || i_us.count() < run.incr_us) {
        run.incr_us = i_us.count();
      }
      if (run.fresh_us < 0.0 || f_us.count() < run.fresh_us) {
        run.fresh_us = f_us.count();
      }
      if (run.warm_us < 0.0 || w_us.count() < run.warm_us) {
        run.warm_us = w_us.count();
      }
    }
  }

  std::vector<double> incr_us, fresh_us, warm_us;
  std::vector<double> cand_speedups, cand_warm_speedups, est_speedups;
  int total_probes = 0;
  int total_incremental = 0;
  char note[32];
  std::printf("\n%18s %6s %9s %7s %12s %12s %12s %9s\n", "query", "class",
              "boundary", "probes", "fresh_us", "warm_us", "region_us",
              "speedup");
  for (const QueryRun& run : queries) {
    const double speedup =
        run.incr_us > 0.0 ? run.fresh_us / run.incr_us : 0.0;
    std::printf("%18s %6s %9s %7d %12.1f %12.1f %12.1f %8.1fx\n",
                run.label.c_str(), run.candidate ? "cand" : "estab",
                boundary_note(run.boundary, note, sizeof(note)), run.probes,
                run.fresh_us, run.warm_us, run.incr_us, speedup);
    incr_us.push_back(run.incr_us);
    fresh_us.push_back(run.fresh_us);
    warm_us.push_back(run.warm_us);
    if (run.candidate) {
      cand_speedups.push_back(speedup);
      cand_warm_speedups.push_back(
          run.incr_us > 0.0 ? run.warm_us / run.incr_us : 0.0);
    } else {
      est_speedups.push_back(speedup);
    }
    total_probes += run.probes;
    total_incremental += run.incremental_probes;
  }
  const double median_speedup = percentile(cand_speedups, 0.5);
  const double warm_median_speedup = percentile(cand_warm_speedups, 0.5);
  const double established_median_speedup = percentile(est_speedups, 0.5);
  const double incr_fraction =
      total_probes > 0
          ? static_cast<double>(total_incremental) / total_probes
          : 0.0;
  std::printf("\nfresh per point:  median %.1f us, p90 %.1f us, max %.1f us\n",
              percentile(fresh_us, 0.5), percentile(fresh_us, 0.9),
              *std::max_element(fresh_us.begin(), fresh_us.end()));
  std::printf("warm analyzer:    median %.1f us, p90 %.1f us, max %.1f us\n",
              percentile(warm_us, 0.5), percentile(warm_us, 0.9),
              *std::max_element(warm_us.begin(), warm_us.end()));
  std::printf("region analyzer:  median %.1f us, p90 %.1f us, max %.1f us\n",
              percentile(incr_us, 0.5), percentile(incr_us, 0.9),
              *std::max_element(incr_us.begin(), incr_us.end()));
  std::printf("candidate sweeps: median %.2fx vs fresh-per-point, %.2fx vs "
              "warm; established sweeps: %.2fx "
              "(%d/%d probes incremental overall)\n",
              median_speedup, warm_median_speedup,
              established_median_speedup, total_incremental, total_probes);
  if (median_speedup < 3.0) {
    std::fprintf(stderr,
                 "WARNING: candidate median speedup %.2fx below the 3x "
                 "acceptance bar\n",
                 median_speedup);
  }

  // The column grain: a 2-D global-scope sweep, columns serial vs on
  // --threads column workers (a column's own analyzer is always serial).
  RegionQuery column_query;
  column_query.axes.push_back(RegionAxis{
      RegionParam::kExecScale, RegionScope::kGlobal, -1, 0.5, 1.5});
  column_query.axes.push_back(RegionAxis{
      RegionParam::kRateScale, RegionScope::kGlobal, -1, 1.0, 4.0});
  column_query.tolerance = tolerance;
  service::SessionConfig serial_cfg = session_cfg;
  serial_cfg.analysis.threads = 1;
  RegionAnalyzer serial_columns(committed, serial_cfg);
  RegionAnalyzer parallel_columns(committed, session_cfg);
  std::vector<double> serial_s, parallel_s;
  int column_probes = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    const Clock::time_point s0 = Clock::now();
    const RegionResult serial = serial_columns.run(column_query);
    const std::chrono::duration<double> s_s = Clock::now() - s0;
    const Clock::time_point p0 = Clock::now();
    const RegionResult parallel = parallel_columns.run(column_query);
    const std::chrono::duration<double> p_s = Clock::now() - p0;
    if (!serial.ok || !parallel.ok) {
      std::fprintf(stderr, "FATAL: column sweep failed: %s\n",
                   (serial.ok ? parallel : serial).error.c_str());
      return 1;
    }
    if (region_result_value(serial).dump() !=
        region_result_value(parallel).dump()) {
      std::fprintf(stderr,
                   "FATAL: column sweep at threads=%d diverges from the "
                   "serial sweep -- determinism contract violated\n",
                   threads);
      return 1;
    }
    serial_s.push_back(s_s.count());
    parallel_s.push_back(p_s.count());
    column_probes = serial.probes;
  }
  const double column_speedup =
      percentile(serial_s, 0.5) / percentile(parallel_s, 0.5);
  std::printf("column sweep (global exec_scale x rate_scale, %d columns, "
              "%d probes): serial median %.3f s, threads %d median %.3f s, "
              "%.2fx\n",
              column_query.columns, column_probes, percentile(serial_s, 0.5),
              threads, percentile(parallel_s, 0.5), column_speedup);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"region_sensitivity\",\n");
  std::fprintf(f,
               "  \"scenario\": \"fig3_periodic_jobshop\",\n"
               "  \"baseline\": \"same bisection, brand new BoundsAnalyzer "
               "per probe (fresh-per-point; warm = one analyzer retained "
               "across probes); pinned horizon\",\n");
  std::fprintf(f,
               "  \"stages\": %lld, \"processors_per_stage\": %lld, "
               "\"jobs\": %lld, \"utilization\": %g, \"threads\": %d,\n",
               opts.get_int("stages", 4), opts.get_int("procs", 2),
               opts.get_int("jobs", 8), opts.get_double("util", 0.7),
               threads);
  std::fprintf(f,
               "  \"candidates\": %zu, \"queries\": %zu, \"repeats\": %d, "
               "\"tolerance\": %g,\n",
               candidate_count, queries.size(), repeats, tolerance);
  std::fprintf(f, "  \"total_probes\": %d,\n", total_probes);
  std::fprintf(f, "  \"incremental_probes\": %d,\n", total_incremental);
  std::fprintf(f, "  \"incremental_fraction\": %.3f,\n", incr_fraction);
  std::fprintf(f,
               "  \"fresh_us\": {\"median\": %.3f, \"p90\": %.3f, "
               "\"max\": %.3f},\n",
               percentile(fresh_us, 0.5), percentile(fresh_us, 0.9),
               *std::max_element(fresh_us.begin(), fresh_us.end()));
  std::fprintf(f,
               "  \"warm_us\": {\"median\": %.3f, \"p90\": %.3f, "
               "\"max\": %.3f},\n",
               percentile(warm_us, 0.5), percentile(warm_us, 0.9),
               *std::max_element(warm_us.begin(), warm_us.end()));
  std::fprintf(f,
               "  \"region_us\": {\"median\": %.3f, \"p90\": %.3f, "
               "\"max\": %.3f},\n",
               percentile(incr_us, 0.5), percentile(incr_us, 0.9),
               *std::max_element(incr_us.begin(), incr_us.end()));
  std::fprintf(f,
               "  \"speedup_class\": \"candidate sweeps (the admit -> "
               "what_if_region service flow); established sweeps reported "
               "separately\",\n");
  std::fprintf(f, "  \"median_speedup\": %.3f,\n", median_speedup);
  std::fprintf(f, "  \"p90_speedup\": %.3f,\n",
               percentile(cand_speedups, 0.9));
  std::fprintf(f, "  \"warm_median_speedup\": %.3f,\n", warm_median_speedup);
  std::fprintf(f, "  \"established_median_speedup\": %.3f,\n",
               established_median_speedup);
  std::fprintf(f, "  \"speedup_bar\": 3.0,\n");
  const auto seconds = [&](const char* key, const std::vector<double>& xs) {
    std::fprintf(f,
                 "    \"%s\": {\"median\": %.6f, \"q1\": %.6f, "
                 "\"q3\": %.6f},\n",
                 key, percentile(xs, 0.5), percentile(xs, 0.25),
                 percentile(xs, 0.75));
  };
  std::fprintf(f,
               "  \"column_sweep\": {\n    \"scope\": \"global\", "
               "\"axes\": \"exec_scale x rate_scale\", \"columns\": %d, "
               "\"probes\": %d, \"threads\": %d,\n",
               column_query.columns, column_probes, threads);
  seconds("serial_s", serial_s);
  seconds("parallel_s", parallel_s);
  std::fprintf(f, "    \"median_speedup\": %.3f\n  },\n", column_speedup);
  std::fprintf(f,
               "  \"determinism\": \"every query's boundary (flags, "
               "endpoints, probe count) identical between the incremental "
               "path and the fresh-per-probe baseline\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
