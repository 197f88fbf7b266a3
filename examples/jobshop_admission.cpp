// Job-shop admission example (the paper's evaluation scenario, Figure 2):
// generate a random staged shop, analyze it with every applicable method,
// and cross-check each verdict against the discrete-event simulator.
//
// Flags: --stages N (default 4)  --procs N (default 2)  --jobs N (default 6)
//        --util U (default 0.6)  --seed S (default 1)   --aperiodic
//
// Exit status: 1 when some method's bound is VIOLATED by the simulation.
//
// Build & run:  ./build/examples/jobshop_admission --util 0.8 --aperiodic
#include <cmath>
#include <cstdio>

#include "analysis/analyzer.hpp"
#include "eval/validation.hpp"
#include "model/priority.hpp"
#include "model/system.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

int main(int argc, char** argv) {
  using namespace rta;
  const Options opts = Options::parse(argc, argv);

  JobShopConfig cfg;
  cfg.stages = opts.get_int("stages", 4);
  cfg.processors_per_stage = opts.get_int("procs", 2);
  cfg.jobs = opts.get_int("jobs", 6);
  cfg.utilization = opts.get_double("util", 0.6);
  cfg.pattern = opts.get_bool("aperiodic", false) ? ArrivalPattern::kAperiodic
                                                  : ArrivalPattern::kPeriodic;
  cfg.window_periods = 6.0;
  cfg.min_rate = 0.15;
  Rng rng(opts.get_int("seed", 1));
  const System base = generate_jobshop(cfg, rng);

  std::printf("job shop: %zu stages x %zu processors, %zu jobs, %s arrivals, "
              "utilization knob %.2f\n",
              cfg.stages, cfg.processors_per_stage, cfg.jobs,
              cfg.pattern == ArrivalPattern::kPeriodic ? "periodic" : "bursty",
              cfg.utilization);
  for (int k = 0; k < base.job_count(); ++k) {
    const Job& j = base.job(k);
    std::printf("  %-4s deadline %7.2f  route:", j.name.c_str(), j.deadline);
    for (const Subjob& s : j.chain) {
      std::printf(" P%d(%.2f)", s.processor, s.exec_time);
    }
    std::printf("  releases %zu\n", j.arrivals.count());
  }

  const std::vector<Method> methods = {Method::kSppExact, Method::kSppSL,
                                       Method::kSppApp, Method::kSpnpApp,
                                       Method::kFcfsApp};

  bool all_hold = true;
  std::printf("\n%-10s %-9s %12s %12s %10s\n", "method", "admits?",
              "max wcrt", "sim worst", "bound ok?");
  for (Method method : methods) {
    System sys = base;
    for (int p = 0; p < sys.processor_count(); ++p) {
      sys.set_scheduler(p, method_scheduler(method));
    }
    assign_proportional_deadline_monotonic(sys);
    const ValidationReport rep =
        validate_method(method, sys, AnalysisConfig{});
    if (!rep.analysis_ok) {
      std::printf("%-10s %-9s (%s)\n", method_name(method), "n/a",
                  rep.error.c_str());
      continue;
    }
    bool admits = true;
    double max_bound = 0.0;
    double max_sim = 0.0;
    for (const JobValidation& jv : rep.jobs) {
      if (std::isinf(jv.analyzed_bound) || jv.analyzed_bound > jv.deadline) {
        admits = false;
      }
      max_bound = std::fmax(max_bound, jv.analyzed_bound);
      max_sim = std::fmax(max_sim, jv.simulated_worst);
    }
    all_hold = all_hold && rep.bounds_hold();
    std::printf("%-10s %-9s %12.3f %12.3f %10s\n", method_name(method),
                admits ? "yes" : "no", max_bound, max_sim,
                rep.bounds_hold() ? "yes" : "VIOLATED");
  }

  std::printf("\n(\"bound ok?\" checks that the analysis dominates the "
              "simulated worst case; SPP/Exact matches it exactly)\n");
  return all_hold ? 0 : 1;
}
