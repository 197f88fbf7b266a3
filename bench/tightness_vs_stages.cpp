// Extra experiment: WHERE does SPP/S&L lose against SPP/Exact?
//
// The paper attributes the gap to S&L "implicitly overestimating the subjob
// arrivals", compounding per stage (§5.2). This bench isolates the
// mechanism: for stage counts 1..6 it reports the mean ratio of each
// method's bound to the simulated worst response on identical systems. The
// exact method stays at 1.0; the holistic ratio should grow with the stage
// count; the per-hop-summation methods (SPNP/FCFS bounds) grow faster.
//
// Flags: --systems N (default 40)  --jobs N (default 6)  --util U (def 0.5)
//        --seed S  --out FILE.csv
#include <cmath>
#include <cstdio>

#include "eval/validation.hpp"
#include "model/priority.hpp"
#include "support/csv.hpp"
#include "support/stats.hpp"
#include "util/options.hpp"
#include "workload/jobshop.hpp"

using namespace rta;

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::size_t systems = opts.get_int("systems", 40);
  const std::size_t jobs = opts.get_int("jobs", 6);
  const double util = opts.get_double("util", 0.5);
  const std::uint64_t seed = opts.get_int("seed", 13);
  const std::string out = opts.get("out", "tightness_vs_stages.csv");

  const std::vector<Method> methods = {Method::kSppExact, Method::kSppSL,
                                       Method::kSppApp, Method::kSpnpApp,
                                       Method::kFcfsApp};

  std::printf("Bound tightness (bound / simulated worst) vs stage count\n");
  std::printf("%zu systems per cell, jobs=%zu, utilization=%.2f, periodic "
              "arrivals\n\n",
              systems, jobs, util);
  std::printf("%7s", "stages");
  for (Method m : methods) std::printf("  %10s", method_name(m));
  std::printf("\n");

  CsvWriter csv({"stages", "method", "mean_tightness", "p95_tightness"});

  for (std::size_t stages = 1; stages <= 6; ++stages) {
    std::printf("%7zu", stages);
    for (Method method : methods) {
      RunningStats stats;
      std::vector<double> ratios;
      for (std::uint64_t s = 1; s <= systems; ++s) {
        JobShopConfig cfg;
        cfg.stages = stages;
        cfg.processors_per_stage = 2;
        cfg.jobs = jobs;
        cfg.pattern = ArrivalPattern::kPeriodic;
        cfg.utilization = util;
        cfg.window_periods = 6.0;
        cfg.min_rate = 0.15;
        cfg.scheduler = method_scheduler(method);
        Rng rng(seed * 1000 + s);
        System sys = generate_jobshop(cfg, rng);
        assign_proportional_deadline_monotonic(sys);
        const ValidationReport rep =
            validate_method(method, sys, AnalysisConfig{});
        if (!rep.analysis_ok) continue;
        for (const JobValidation& jv : rep.jobs) {
          if (!std::isfinite(jv.analyzed_bound) ||
              !std::isfinite(jv.simulated_worst) ||
              jv.simulated_worst <= 1e-9) {
            continue;
          }
          stats.add(jv.analyzed_bound / jv.simulated_worst);
          ratios.push_back(jv.analyzed_bound / jv.simulated_worst);
        }
      }
      std::printf("  %10.3f", stats.mean());
      csv.add(stages, std::string(method_name(method)), stats.mean(),
              quantile(ratios, 0.95));
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::printf("\n(SPP/Exact is 1.0 by construction; growth with stages shows "
              "each method's per-hop compounding)\n");
  if (csv.write_file(out)) std::printf("wrote %s\n", out.c_str());
  return 0;
}
