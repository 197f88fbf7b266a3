#include "analysis/holistic.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace rta {

namespace {

/// Interference instances of a jittered periodic task in a window of length
/// w: ceil((w + J) / T), with a single instance for one-shot tasks.
double interference_count(double w, const JitteredTask& t) {
  if (std::isinf(t.period)) return 1.0;
  return static_cast<double>(tolerant_ceil((w + t.jitter) / t.period));
}

}  // namespace

Time jittered_response_time(const JitteredTask& task,
                            const std::vector<JitteredTask>& hp,
                            double divergence_cap) {
  // Utilization pre-check: a diverging busy period never closes.
  double util = std::isinf(task.period) ? 0.0 : task.exec / task.period;
  for (const JitteredTask& t : hp) {
    if (!std::isinf(t.period)) util += t.exec / t.period;
  }
  if (util > 1.0 + 1e-9) return kTimeInfinity;

  // Level-i busy period length L (includes all instances of the task).
  double busy = task.exec;
  for (;;) {
    double next = interference_count(busy, task) * task.exec;
    for (const JitteredTask& t : hp) next += interference_count(busy, t) * t.exec;
    if (next > divergence_cap) return kTimeInfinity;
    if (time_eq(next, busy)) break;
    busy = next;
  }

  const long long q_max =
      std::isinf(task.period)
          ? 1
          : tolerant_ceil((busy + task.jitter) / task.period);

  Time worst = 0.0;
  for (long long q = 0; q < q_max; ++q) {
    // w_q: completion of the (q+1)-th instance in the busy period.
    double w = static_cast<double>(q + 1) * task.exec;
    for (;;) {
      double next = static_cast<double>(q + 1) * task.exec;
      for (const JitteredTask& t : hp) {
        next += interference_count(w, t) * t.exec;
      }
      if (next > divergence_cap) return kTimeInfinity;
      if (time_eq(next, w)) break;
      w = next;
    }
    const double arrival_offset =
        std::isinf(task.period) ? 0.0
                                : static_cast<double>(q) * task.period;
    worst = std::max<Time>(worst, task.jitter + w - arrival_offset);
  }
  return worst;
}

AnalysisResult HolisticAnalyzer::analyze(const System& system) const {
  for (int p = 0; p < system.processor_count(); ++p) {
    if (system.scheduler(p) != SchedulerKind::kSpp) {
      AnalysisResult r;
      r.error = "HolisticAnalyzer requires SPP on every processor";
      return r;
    }
  }
  if (auto invalid = system.validation_error()) {
    AnalysisResult r;
    r.error = std::move(*invalid);
    return r;
  }

  // Periods: the method is defined for periodic arrivals only.
  std::vector<double> period(system.job_count());
  for (int k = 0; k < system.job_count(); ++k) {
    const auto& rel = system.job(k).arrivals.releases();
    if (rel.size() < 2) {
      period[k] = kTimeInfinity;
      continue;
    }
    const double gap = rel[1] - rel[0];
    for (std::size_t i = 2; i < rel.size(); ++i) {
      if (!time_eq(rel[i] - rel[i - 1], gap)) {
        AnalysisResult r;
        r.error = "HolisticAnalyzer requires periodic arrivals (job " +
                  system.job(k).name + " is not periodic)";
        return r;
      }
    }
    period[k] = gap;
  }

  double max_deadline = 0.0;
  double max_period = 0.0;
  for (int k = 0; k < system.job_count(); ++k) {
    max_deadline = std::max(max_deadline, system.job(k).deadline);
    if (!std::isinf(period[k])) max_period = std::max(max_period, period[k]);
  }
  const double cap = 64.0 * (max_deadline + max_period) + 64.0;

  // R[k][j]: bound on the completion of hop j measured from the job's
  // original arrival. J[k][j] = R[k][j-1] - best-case release offset.
  std::vector<std::vector<double>> R(system.job_count());
  std::vector<std::vector<double>> jitter(system.job_count());
  std::vector<std::vector<double>> best_offset(system.job_count());
  for (int k = 0; k < system.job_count(); ++k) {
    const auto& chain = system.job(k).chain;
    R[k].assign(chain.size(), 0.0);
    jitter[k].assign(chain.size(), 0.0);
    best_offset[k].assign(chain.size(), 0.0);
    double acc = 0.0;
    for (std::size_t h = 0; h < chain.size(); ++h) {
      best_offset[k][h] = acc;  // earliest possible release of hop h
      acc += chain[h].exec_time;
    }
  }

  bool diverged = false;
  for (int iter = 0; iter < config_.max_iterations && !diverged; ++iter) {
    bool changed = false;
    for (int k = 0; k < system.job_count() && !diverged; ++k) {
      const Job& job = system.job(k);
      for (int h = 0; h < static_cast<int>(job.chain.size()); ++h) {
        const Subjob& sj = job.chain[h];
        jitter[k][h] =
            (h == 0) ? 0.0
                     : std::max(0.0, R[k][h - 1] - best_offset[k][h]);
        JitteredTask self{period[k], jitter[k][h], sj.exec_time};
        std::vector<JitteredTask> hp;
        for (const SubjobRef& other :
             system.higher_priority_on(sj.processor, sj.priority)) {
          hp.push_back({period[other.job], jitter[other.job][other.hop],
                        system.subjob(other).exec_time});
        }
        const Time r = jittered_response_time(self, hp, cap);
        if (std::isinf(r)) {
          diverged = true;
          break;
        }
        // r is measured from the nominal (jitter-free) release of hop h,
        // which is the job's arrival + best_offset.
        const double completed = best_offset[k][h] + r;
        if (!time_eq(completed, R[k][h])) changed = true;
        R[k][h] = std::max(R[k][h], completed);
      }
    }
    if (!changed) break;
  }

  AnalysisResult result;
  result.ok = true;
  result.horizon = 0.0;  // not horizon-based
  result.jobs.resize(system.job_count());
  for (int k = 0; k < system.job_count(); ++k) {
    const Job& job = system.job(k);
    JobReport& report = result.jobs[k];
    report.hops.resize(job.chain.size());
    for (int h = 0; h < static_cast<int>(job.chain.size()); ++h) {
      report.hops[h].ref = {k, h};
      report.hops[h].local_bound =
          diverged ? kTimeInfinity
                   : R[k][h] - (h == 0 ? 0.0 : R[k][h - 1]);
    }
    report.wcrt = diverged ? kTimeInfinity : R[k].back();
    report.schedulable = !diverged && time_le(report.wcrt, job.deadline);
  }
  return result;
}

}  // namespace rta
