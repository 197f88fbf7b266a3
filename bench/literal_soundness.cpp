// Reproduction finding: how unsound are Theorems 5/6 as printed?
//
// DESIGN.md documents three defects in the literal Eqs. 16-19 (interference
// direction, once-global blocking, increment mixing). This bench quantifies
// them: on random SPNP and SPP job shops it runs BOTH the literal
// transcription (the test-only driver in tests/support/literal_bounds.hpp)
// and the shipped sound BoundsAnalyzer against the discrete-event simulator
// and reports
//   * the fraction of jobs whose bound falls BELOW the simulated worst
//     response (an unsound, too-optimistic bound), and
//   * the mean ratio of bound to observed response where it holds.
//
// Exits 1 when a sound row shows a violation, or when the SPNP literal row
// shows none (the control that proves the printed forms unsound stopped
// firing); ctest runs it as bench_literal_soundness.
//
// Flags: --systems N (default 60)  --util U (default 0.6)  --seed S
//        --stages N (default 3)    --jobs N (default 6)    --out FILE.csv
#include <cmath>
#include <cstdio>

#include "analysis/bounds.hpp"
#include "model/priority.hpp"
#include "sim/simulator.hpp"
#include "support/csv.hpp"
#include "support/literal_bounds.hpp"
#include "util/options.hpp"
#include "workload/jobshop.hpp"

using namespace rta;

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::size_t systems = opts.get_int("systems", 60);
  const double util = opts.get_double("util", 0.6);
  const std::size_t stages = opts.get_int("stages", 3);
  const std::size_t jobs = opts.get_int("jobs", 6);
  const std::uint64_t seed = opts.get_int("seed", 11);
  const std::string out = opts.get("out", "literal_soundness.csv");

  std::printf("Theorems 5/6 as printed vs the sound per-candidate variant\n");
  std::printf("%zu random shops, stages=%zu, jobs=%zu, utilization=%.2f\n\n",
              systems, stages, jobs, util);

  CsvWriter csv({"scheduler", "variant", "jobs_checked", "violations",
                 "violation_fraction", "mean_bound_over_observed"});

  std::printf("%-6s %-9s %8s %11s %10s %10s\n", "sched", "variant", "jobs",
              "violations", "viol.frac", "mean b/o");
  bool failed = false;
  for (SchedulerKind kind : {SchedulerKind::kSpnp, SchedulerKind::kSpp}) {
    for (const bool literal : {true, false}) {
      std::size_t checked = 0, violations = 0;
      double ratio_sum = 0.0;
      std::size_t ratio_n = 0;
      for (std::uint64_t s = 1; s <= systems; ++s) {
        JobShopConfig cfg;
        cfg.stages = stages;
        cfg.processors_per_stage = 2;
        cfg.jobs = jobs;
        cfg.pattern =
            (s % 2) ? ArrivalPattern::kPeriodic : ArrivalPattern::kAperiodic;
        cfg.utilization = util;
        cfg.window_periods = 6.0;
        cfg.min_rate = 0.15;
        cfg.scheduler = kind;
        Rng rng(seed * 100 + s);
        System sys = generate_jobshop(cfg, rng);
        assign_proportional_deadline_monotonic(sys);

        const AnalysisResult analysis = literal
                                            ? literal::analyze(sys)
                                            : BoundsAnalyzer().analyze(sys);
        if (!analysis.ok) continue;
        // Simulate over the horizon the analysis used, so both see the same
        // instances.
        const SimResult sim = simulate(sys, analysis.horizon);
        for (int k = 0; k < sys.job_count(); ++k) {
          const Time bound = analysis.jobs[k].wcrt;
          const Time observed = sim.worst_response[k];
          ++checked;
          if (std::isinf(bound)) continue;
          if (std::isinf(observed) || bound < observed - 1e-6) {
            ++violations;
          } else if (observed > 1e-9) {
            ratio_sum += bound / observed;
            ++ratio_n;
          }
        }
      }
      const char* vname = literal ? "literal" : "sound";
      const double frac = checked ? static_cast<double>(violations) /
                                        static_cast<double>(checked)
                                  : 0.0;
      const double mean_ratio =
          ratio_n ? ratio_sum / static_cast<double>(ratio_n) : 0.0;
      std::printf("%-6s %-9s %8zu %11zu %10.3f %10.3f\n", to_string(kind),
                  vname, checked, violations, frac, mean_ratio);
      csv.add(std::string(to_string(kind)), std::string(vname), checked,
              violations, frac, mean_ratio);
      if (!literal && violations > 0) {
        std::fprintf(stderr, "FAIL: the sound %s bounds were violated\n",
                     to_string(kind));
        failed = true;
      }
      if (literal && kind == SchedulerKind::kSpnp && violations == 0) {
        std::fprintf(stderr,
                     "FAIL: the printed SPNP bounds showed no violation; "
                     "the unsoundness control no longer fires\n");
        failed = true;
      }
    }
  }

  std::printf("\n(violations = jobs whose bound fell below the simulated "
              "worst response; the sound variant must show 0)\n");
  if (csv.write_file(out)) std::printf("wrote %s\n", out.c_str());
  return failed ? 1 : 0;
}
