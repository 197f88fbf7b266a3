// Simulation-vs-analysis validation harness.
//
// Runs the discrete-event simulator and the applicable analyzers on the same
// system, and reports, per job, the observed worst response next to each
// method's bound. compare_with_simulation is the one bound-vs-simulation
// rule: `rta_cli validate`, validate_method and the tests all reach their
// verdict through its report's bounds_hold().
#pragma once

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/result.hpp"
#include "model/system.hpp"
#include "sim/simulator.hpp"

namespace rta {

struct JobValidation {
  std::string job_name;
  Time deadline = 0.0;
  Time simulated_worst = 0.0;  ///< worst observed end-to-end response
  Time analyzed_bound = 0.0;   ///< the method's WCRT bound
};

struct ValidationReport {
  Method method = Method::kSppExact;
  bool analysis_ok = false;
  std::string error;
  std::vector<JobValidation> jobs;

  /// Smallest (bound - observed); negative means the bound was violated.
  /// An infinite bound is skipped; an infinite observation under a finite
  /// bound makes it -infinity.
  [[nodiscard]] double min_slack() const;
  [[nodiscard]] bool bounds_hold() const { return min_slack() >= -1e-6; }
};

/// Compare an analysis and a simulation of `system` that were already run,
/// job by job. A failed analysis gives a report with its error and no jobs.
/// `method` is left at its default for the caller to set.
[[nodiscard]] ValidationReport compare_with_simulation(
    const System& system, const AnalysisResult& analysis, const SimResult& sim);

/// Validate one method on one system (schedulers must match the method):
/// analyze, simulate over the analysis horizon (so both see the same
/// instances), compare_with_simulation.
[[nodiscard]] ValidationReport validate_method(Method method,
                                               const System& system,
                                               const AnalysisConfig& config);

}  // namespace rta
