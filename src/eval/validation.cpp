#include "eval/validation.hpp"

#include <algorithm>
#include <cmath>

namespace rta {

double ValidationReport::min_slack() const {
  double best = kTimeInfinity;
  for (const JobValidation& j : jobs) {
    if (std::isinf(j.analyzed_bound)) continue;  // infinite bound never lies
    if (std::isinf(j.simulated_worst)) return -kTimeInfinity;
    best = std::min(best, j.analyzed_bound - j.simulated_worst);
  }
  return best;
}

ValidationReport compare_with_simulation(const System& system,
                                         const AnalysisResult& analysis,
                                         const SimResult& sim) {
  ValidationReport report;
  report.analysis_ok = analysis.ok;
  report.error = analysis.error;
  if (!analysis.ok) return report;

  report.jobs.reserve(system.job_count());
  for (int k = 0; k < system.job_count(); ++k) {
    JobValidation jv;
    jv.job_name = system.job(k).name;
    jv.deadline = system.job(k).deadline;
    jv.simulated_worst = sim.worst_response[k];
    jv.analyzed_bound = analysis.jobs[k].wcrt;
    report.jobs.push_back(std::move(jv));
  }
  return report;
}

ValidationReport validate_method(Method method, const System& system,
                                 const AnalysisConfig& config) {
  const AnalysisResult analysis = analyze_with(method, system, config);
  SimResult sim;
  if (analysis.ok) {
    sim = simulate(system, analysis.horizon > 0.0
                               ? analysis.horizon
                               : default_horizon(system, config));
  }
  ValidationReport report = compare_with_simulation(system, analysis, sim);
  report.method = method;
  return report;
}

}  // namespace rta
