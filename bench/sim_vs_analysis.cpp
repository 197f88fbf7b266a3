// Validation bench: analysis bounds vs simulated worst-case response times
// on random job shops, per method. Reports, for each method, how often the
// bound held (it must always hold), and the tightness distribution
// (bound / observed ratio).
//
// Flags: --systems N (default 40)  --stages N (default 3)  --jobs N (def. 5)
//        --util U (default 0.5)    --seed S                --out FILE.csv
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
  const std::size_t stages = opts.get_int("stages", 3);
  const std::size_t jobs = opts.get_int("jobs", 5);
  const double util = opts.get_double("util", 0.5);
  const std::uint64_t seed = opts.get_int("seed", 7);
  const std::string out = opts.get("out", "sim_vs_analysis.csv");

  std::printf("Analysis bounds vs simulation: %zu random shops "
              "(stages=%zu, jobs=%zu, utilization=%.2f)\n",
              systems, stages, jobs, util);

  const std::vector<std::pair<Method, ArrivalPattern>> cases = {
      {Method::kSppExact, ArrivalPattern::kPeriodic},
      {Method::kSppExact, ArrivalPattern::kAperiodic},
      {Method::kSppApp, ArrivalPattern::kAperiodic},
      {Method::kSppSL, ArrivalPattern::kPeriodic},
      {Method::kSpnpApp, ArrivalPattern::kPeriodic},
      {Method::kSpnpApp, ArrivalPattern::kAperiodic},
      {Method::kFcfsApp, ArrivalPattern::kPeriodic},
      {Method::kFcfsApp, ArrivalPattern::kAperiodic},
  };

  CsvWriter csv({"method", "pattern", "systems", "jobs_checked",
                 "bound_violations", "mean_tightness", "max_tightness"});

  std::printf("\n%10s %10s %8s %10s %11s %11s %11s\n", "method", "pattern",
              "systems", "jobs", "violations", "mean b/o", "max b/o");
  for (const auto& [method, pattern] : cases) {
    RunningStats tightness;
    std::size_t checked = 0;
    std::size_t violations = 0;
    for (std::uint64_t s = 1; s <= systems; ++s) {
      JobShopConfig cfg;
      cfg.stages = stages;
      cfg.processors_per_stage = 2;
      cfg.jobs = jobs;
      cfg.pattern = pattern;
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
        ++checked;
        if (std::isinf(jv.analyzed_bound)) continue;
        if (std::isinf(jv.simulated_worst) ||
            jv.analyzed_bound < jv.simulated_worst - 1e-6) {
          ++violations;
          continue;
        }
        if (jv.simulated_worst > 1e-9) {
          tightness.add(jv.analyzed_bound / jv.simulated_worst);
        }
      }
    }
    const char* pat =
        pattern == ArrivalPattern::kPeriodic ? "periodic" : "aperiodic";
    std::printf("%10s %10s %8zu %10zu %11zu %11.3f %11.3f\n",
                method_name(method), pat, systems, checked, violations,
                tightness.mean(), tightness.max());
    csv.add(std::string(method_name(method)), std::string(pat), systems,
            checked, violations, tightness.mean(), tightness.max());
  }

  std::printf("\n(b/o = analyzed bound / observed worst response; SPP/Exact "
              "must sit at 1.000; violations must be 0 everywhere)\n");
  if (csv.write_file(out)) std::printf("wrote %s\n", out.c_str());
  return 0;
}
