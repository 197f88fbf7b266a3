// Shared result/configuration types for all analyzers.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "curve/pwl_curve.hpp"
#include "model/system.hpp"
#include "obs/observer.hpp"
#include "util/time.hpp"

namespace rta {

/// Analysis tuning knobs. The defaults suit the paper's workloads.
struct AnalysisConfig {
  /// Analysis horizon; 0 selects automatically: last release + padding,
  /// where padding = max(2 * max deadline, last release / 2)
  /// (default_horizon).
  Time horizon = 0.0;

  /// If a response time cannot be bounded within the horizon, the horizon is
  /// doubled and the analysis re-run, up to this many times, before the
  /// result is reported as unbounded (conservatively unschedulable).
  int max_horizon_doublings = 3;

  /// Keep per-subjob curves in the report (costs memory; for inspection).
  bool record_curves = false;

  /// Iteration cap for the fixed-point analyzers (iterative topology loop
  /// and the holistic baseline's outer jitter loop).
  int max_iterations = 64;

  /// Worker threads for the parallel bounds engines and region columns
  /// (service::AdmissionSession always analyzes serially), resolved by
  /// resolve_workers (util/thread_pool.hpp): 1 = serial (default),
  /// 0 = hardware concurrency, N = that many.
  /// Determinism contract: the computed bounds are bit-identical for every
  /// value (tests/test_differential_engine.cpp).
  int threads = 1;

  /// No effect: curve results are no longer memoized. Kept only so that
  /// perfbench/workloads.cpp, which sets it, still compiles; remove both
  /// together in the next change to perfbench.
  bool use_curve_cache = true;

  /// Instrumentation sinks (see obs/observer.hpp and docs/observability.md).
  /// Both null by default: the engine then records nothing and skips every
  /// instrumentation atomic. Never affects results -- instrumented and
  /// uninstrumented analyses are bit-identical (tests/test_obs.cpp).
  obs::Observer observer{};
};

/// Curves retained for one subjob when record_curves is set.
struct SubjobCurves {
  PwlCurve arrival_upper;  ///< f̄_arr (exact f_arr for the exact analyzer)
  PwlCurve arrival_lower;  ///< f̲_arr (exact analyzer: same as upper)
  PwlCurve service_upper;  ///< S̄ (exact analyzer: S)
  PwlCurve service_lower;  ///< S̲ (exact analyzer: S)
  PwlCurve departure_lower;  ///< f̲_dep (exact analyzer: f_dep)
};

/// Per-hop findings.
struct SubjobReport {
  SubjobRef ref;
  /// Local response bound d_{k,j} of Eq. 12 (approximate analyzers only;
  /// kTimeInfinity when unbounded, 0 for the exact analyzer which does not
  /// decompose per hop).
  Time local_bound = 0.0;
  /// Retained curves (empty unless AnalysisConfig::record_curves).
  std::vector<SubjobCurves> curves;
};

/// Per-job findings.
struct JobReport {
  /// Worst-case end-to-end response-time bound (exact value for the exact
  /// analyzer; kTimeInfinity if unbounded within the horizon).
  Time wcrt = 0.0;
  bool schedulable = false;
  /// Exact analyzer only: response time of every instance (1-based instance
  /// m at index m-1). Empty for approximate analyzers.
  std::vector<Time> per_instance;
  std::vector<SubjobReport> hops;
};

/// Result of one analysis run.
struct AnalysisResult {
  bool ok = false;      ///< false: analyzer not applicable / model invalid
  std::string error;    ///< human-readable reason when !ok
  Time horizon = 0.0;   ///< horizon actually used (after any doubling)
  std::vector<JobReport> jobs;

  [[nodiscard]] bool all_schedulable() const {
    if (!ok) return false;
    for (const JobReport& j : jobs) {
      if (!j.schedulable) return false;
    }
    return true;
  }

  /// Largest WCRT bound across jobs: kTimeInfinity when any job is
  /// unbounded, 0 when there are no jobs.
  [[nodiscard]] Time max_wcrt() const {
    Time worst = 0.0;
    for (const JobReport& j : jobs) {
      if (j.wcrt > worst) worst = j.wcrt;
    }
    return worst;
  }

  /// True when some job's WCRT could not be bounded within the horizon.
  [[nodiscard]] bool any_unbounded() const {
    for (const JobReport& j : jobs) {
      if (std::isinf(j.wcrt)) return true;
    }
    return false;
  }
};

/// Default automatic horizon for a system under a config.
[[nodiscard]] Time default_horizon(const System& system,
                                   const AnalysisConfig& config);

/// The same horizon from its ingredients: the system's last release and its
/// largest deadline (0 for a system without jobs).
[[nodiscard]] Time default_horizon(Time last_release, Time max_deadline,
                                   const AnalysisConfig& config);

/// The horizon-doubling policy every analyzer shares: returns
/// `analyze_at(horizon)`, except that while that result is ok but some job
/// is unbounded, the horizon is doubled and `analyze_at` run again, at most
/// `max_doublings` times. The last result is returned either way.
template <typename AnalyzeAt>
[[nodiscard]] AnalysisResult analyze_doubling_horizon(Time horizon,
                                                      int max_doublings,
                                                      AnalyzeAt&& analyze_at) {
  AnalysisResult result = analyze_at(horizon);
  for (int round = 0; round < max_doublings; ++round) {
    if (!result.ok || !result.any_unbounded()) break;
    horizon *= 2.0;
    result = analyze_at(horizon);
  }
  return result;
}

}  // namespace rta
