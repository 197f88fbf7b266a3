#include "analysis/result.hpp"

#include <algorithm>

namespace rta {

namespace {

/// The automatic horizon pads the last release by the larger of these
/// multiples of the largest deadline and of the last release itself.
constexpr double kPaddingDeadlines = 2.0;
constexpr double kPaddingFraction = 0.5;

}  // namespace

Time default_horizon(const System& system, const AnalysisConfig& config) {
  if (config.horizon > 0.0) return config.horizon;  // skip the O(jobs) scan
  Time max_deadline = 0.0;
  for (const Job& j : system.jobs()) {
    max_deadline = std::max(max_deadline, j.deadline);
  }
  return default_horizon(system.last_release(), max_deadline, config);
}

Time default_horizon(Time last_release, Time max_deadline,
                     const AnalysisConfig& config) {
  if (config.horizon > 0.0) return config.horizon;
  const Time padding =
      std::max(kPaddingDeadlines * max_deadline,
               kPaddingFraction * last_release);
  return std::max<Time>(last_release + padding, 1.0);
}

}  // namespace rta
