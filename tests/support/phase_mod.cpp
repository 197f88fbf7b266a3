#include "support/phase_mod.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/holistic.hpp"

namespace rta {

AnalysisResult PhaseModAnalyzer::analyze(const System& system,
                                         PhaseSchedule* schedule) const {
  for (int p = 0; p < system.processor_count(); ++p) {
    if (system.scheduler(p) != SchedulerKind::kSpp) {
      AnalysisResult r;
      r.error = "PhaseModAnalyzer requires SPP on every processor";
      return r;
    }
  }
  if (auto invalid = system.validation_error()) {
    AnalysisResult r;
    r.error = std::move(*invalid);
    return r;
  }

  // Periods (PM is defined for periodic arrivals).
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
        r.error = "PhaseModAnalyzer requires periodic arrivals (job " +
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

  // With PM every subjob arrives strictly periodically (zero jitter), so
  // each hop's worst response is a single busy-period computation -- no
  // cross-hop iteration needed.
  AnalysisResult result;
  result.ok = true;
  result.jobs.resize(system.job_count());
  if (schedule) schedule->offsets.assign(system.job_count(), {});

  for (int k = 0; k < system.job_count(); ++k) {
    const Job& job = system.job(k);
    JobReport& report = result.jobs[k];
    report.hops.resize(job.chain.size());
    double offset = 0.0;  // release offset of the current hop
    bool diverged = false;
    for (int h = 0; h < static_cast<int>(job.chain.size()); ++h) {
      if (schedule) schedule->offsets[k].push_back(offset);
      const Subjob& sj = job.chain[h];
      JitteredTask self{period[k], 0.0, sj.exec_time};
      std::vector<JitteredTask> hp;
      for (const SubjobRef& other :
           system.higher_priority_on(sj.processor, sj.priority)) {
        hp.push_back({period[other.job], 0.0,
                      system.subjob(other).exec_time});
      }
      const Time r = jittered_response_time(self, hp, cap);
      report.hops[h].ref = {k, h};
      report.hops[h].local_bound = r;
      if (std::isinf(r)) {
        diverged = true;
        break;
      }
      offset += r;
    }
    report.wcrt = diverged ? kTimeInfinity : offset;
    report.schedulable = !diverged && time_le(report.wcrt, job.deadline);
    if (schedule) {
      // Pad unfilled offsets (divergence) so consumers see full chains.
      while (schedule->offsets[k].size() < job.chain.size()) {
        schedule->offsets[k].push_back(kTimeInfinity);
      }
    }
  }
  return result;
}

}  // namespace rta
