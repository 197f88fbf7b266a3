#include "workload/jobshop.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

namespace rta {

System generate_jobshop(const JobShopConfig& config, Rng& rng) {
  assert(config.stages >= 1);
  assert(config.processors_per_stage >= 1);
  assert(config.jobs >= 1);
  const int proc_count =
      static_cast<int>(config.stages * config.processors_per_stage);
  System system(proc_count, config.scheduler);

  // Rates x_k ~ U(0,1), bounded away from 0 so periods 1/x stay finite-ish.
  std::vector<double> rate(config.jobs);
  for (double& x : rate) x = rng.uniform_open(config.min_rate, 1.0);

  // Stage assignment: one processor per stage per job.
  std::vector<std::vector<int>> assigned(config.jobs,
                                         std::vector<int>(config.stages));
  for (std::size_t k = 0; k < config.jobs; ++k) {
    for (std::size_t s = 0; s < config.stages; ++s) {
      const int q =
          rng.uniform_int(0, static_cast<int>(config.processors_per_stage) - 1);
      assigned[k][s] =
          static_cast<int>(s * config.processors_per_stage) + q;
    }
  }

  // Weights w_{k,j} ~ U(0,1) and the per-processor normalization of
  // Eq. 26 / Eq. 28: tau_{k,j} = w_{k,j} (1/x_k) / sum_{P(l,i)=P(k,j)}
  // w_{l,i} (1/x_l) * Utilization.
  std::vector<std::vector<double>> weight(config.jobs,
                                          std::vector<double>(config.stages));
  for (auto& row : weight) {
    for (double& w : row) w = rng.uniform_open(0.0, 1.0);
  }
  std::vector<double> denom(proc_count, 0.0);
  for (std::size_t k = 0; k < config.jobs; ++k) {
    for (std::size_t s = 0; s < config.stages; ++s) {
      denom[assigned[k][s]] += weight[k][s] / rate[k];
    }
  }

  // Generation window: a fixed number of the longest period.
  double max_period = 0.0;
  for (double x : rate) max_period = std::max(max_period, 1.0 / x);
  const Time window = config.window_periods * max_period;

  for (std::size_t k = 0; k < config.jobs; ++k) {
    Job job;
    job.name = "T";
    job.name += std::to_string(k + 1);
    const double period = 1.0 / rate[k];

    double total_exec = 0.0;
    for (std::size_t s = 0; s < config.stages; ++s) {
      Subjob sj;
      sj.processor = assigned[k][s];
      sj.exec_time = weight[k][s] / rate[k] / denom[assigned[k][s]] *
                     config.utilization;
      total_exec += sj.exec_time;
      job.chain.push_back(sj);
    }

    switch (config.pattern) {
      case ArrivalPattern::kPeriodic:
        job.arrivals = ArrivalSequence::periodic(period, window);
        job.deadline = config.deadline.period_multiple * period;
        break;
      case ArrivalPattern::kAperiodic: {
        job.arrivals = ArrivalSequence::bursty_eq27(rate[k], window);
        // Deadline = best-case response + Gamma(mean, variance) slack, with
        // the draw scaled by the job's asymptotic period so it is
        // commensurate with its timescale. Shifting by the best case (the
        // chain's total execution time) keeps every draw feasible; without
        // the shift, high-variance draws land below the best-case response
        // and trivially reject the set no matter which analysis is used,
        // drowning the signal the paper reports (variance having little
        // effect). Documented in DESIGN.md's substitutions.
        const double draw =
            rng.gamma_mean_var(config.deadline.mean, config.deadline.variance);
        job.deadline = total_exec + draw * period;
        break;
      }
    }
    system.add_job(std::move(job));
  }
  return system;
}

}  // namespace rta
