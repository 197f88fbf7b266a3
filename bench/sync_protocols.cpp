// Extra experiment: Direct Synchronization vs Phase Modification.
//
// The paper's introduction summarizes [1]: appropriate synchronization (PM)
// reduces worst-case end-to-end bounds compared to plain DS analysis, "but
// adds overhead to the system and increases the average end-to-end response
// times". This bench reproduces the trade-off on random periodic shops:
//
//   * analysis bounds per job: SPP/Exact (DS trace), SPP/S&L (DS holistic),
//     SPP/PM (phase modification);
//   * simulated mean and worst end-to-end responses under both protocols.
//
// Flags: --systems N (default 25)  --jobs N (default 6)  --util U (def 0.85)
//        --seed S  --out FILE.csv
#include <cmath>
#include <cstdio>

#include "analysis/holistic.hpp"
#include "analysis/spp_exact.hpp"
#include "model/priority.hpp"
#include "sim/simulator.hpp"
#include "support/csv.hpp"
#include "support/phase_mod.hpp"
#include "support/stats.hpp"
#include "util/options.hpp"
#include "workload/jobshop.hpp"

using namespace rta;

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::size_t systems = opts.get_int("systems", 25);
  const std::size_t jobs = opts.get_int("jobs", 6);
  const double util = opts.get_double("util", 0.85);
  const std::uint64_t seed = opts.get_int("seed", 17);
  const std::string out = opts.get("out", "sync_protocols.csv");

  std::printf("Direct Synchronization vs Phase Modification, periodic shops "
              "(%zu systems/row, jobs=%zu, util=%.2f)\n\n",
              systems, jobs, util);
  std::printf("%7s %12s %12s %12s | %10s %10s %10s %10s\n", "stages",
              "bnd:Exact", "bnd:S&L", "bnd:PM", "sim DS avg", "sim PM avg",
              "sim DS max", "sim PM max");

  CsvWriter csv({"stages", "bound_exact", "bound_sl", "bound_pm",
                 "sim_ds_mean", "sim_pm_mean", "sim_ds_worst",
                 "sim_pm_worst"});

  for (std::size_t stages : {1ul, 2ul, 4ul}) {
    RunningStats b_exact, b_sl, b_pm, ds_mean, pm_mean, ds_worst, pm_worst;
    for (std::uint64_t s = 1; s <= systems; ++s) {
      JobShopConfig cfg;
      cfg.stages = stages;
      cfg.processors_per_stage = 2;
      cfg.jobs = jobs;
      cfg.utilization = util;
      cfg.window_periods = 6.0;
      cfg.min_rate = 0.2;
      Rng rng(seed * 100 + s);
      System sys = generate_jobshop(cfg, rng);
      assign_proportional_deadline_monotonic(sys);

      PhaseSchedule schedule;
      const AnalysisResult pm = PhaseModAnalyzer().analyze(sys, &schedule);
      const AnalysisResult sl = HolisticAnalyzer().analyze(sys);
      const AnalysisResult exact = ExactSppAnalyzer().analyze(sys);
      if (!pm.ok || !sl.ok || !exact.ok) continue;

      const Time horizon = default_horizon(sys, AnalysisConfig{});
      const SimResult sim_ds = simulate(sys, horizon);
      const SimResult sim_pm = simulate_phased(sys, schedule, horizon);

      for (int k = 0; k < sys.job_count(); ++k) {
        if (std::isfinite(exact.jobs[k].wcrt)) b_exact.add(exact.jobs[k].wcrt);
        if (std::isfinite(sl.jobs[k].wcrt)) b_sl.add(sl.jobs[k].wcrt);
        if (std::isfinite(pm.jobs[k].wcrt)) b_pm.add(pm.jobs[k].wcrt);
        if (std::isfinite(sim_ds.worst_response[k])) {
          ds_worst.add(sim_ds.worst_response[k]);
        }
        if (std::isfinite(sim_pm.worst_response[k])) {
          pm_worst.add(sim_pm.worst_response[k]);
        }
        for (std::size_t m = 0; m < sim_ds.traces[k].size(); ++m) {
          if (sim_ds.traces[k][m].completed()) {
            ds_mean.add(sim_ds.traces[k][m].response());
          }
          if (sim_pm.traces[k][m].completed()) {
            pm_mean.add(sim_pm.traces[k][m].response());
          }
        }
      }
    }
    std::printf("%7zu %12.3f %12.3f %12.3f | %10.3f %10.3f %10.3f %10.3f\n",
                stages, b_exact.mean(), b_sl.mean(), b_pm.mean(),
                ds_mean.mean(), pm_mean.mean(), ds_worst.mean(),
                pm_worst.mean());
    csv.add(stages, b_exact.mean(), b_sl.mean(), b_pm.mean(), ds_mean.mean(),
            pm_mean.mean(), ds_worst.mean(), pm_worst.mean());
    std::fflush(stdout);
  }

  std::printf("\n(expected: bnd:PM <= bnd:S&L, and sim PM avg >= sim DS avg "
              "-- synchronization trades average latency for analyzable "
              "worst cases; SPP/Exact needs neither.)\n");
  if (csv.write_file(out)) std::printf("wrote %s\n", out.c_str());
  return 0;
}
