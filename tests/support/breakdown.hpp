// Breakdown utilization: the classic scalar summary of an analysis method's
// usable capacity. For one generated job set, the breakdown utilization of a
// method is the largest utilization knob at which the method still admits
// the set (execution times scale linearly with the knob, Eq. 26/28, so
// admission is monotone and bisection applies). Higher is better; the gap
// between methods integrates the admission-probability curves of Figures
// 3/4 into one number per trial. Used by bench/breakdown and its tests; it
// lives in the test-only rta_test_support library.
#pragma once

#include <cstdint>

#include "analysis/analyzer.hpp"
#include "analysis/result.hpp"
#include "workload/jobshop.hpp"

namespace rta {

struct BreakdownConfig {
  double lo = 0.05;   ///< knob known (assumed) admissible if anything is
  double hi = 2.5;    ///< knob assumed inadmissible
  double tol = 0.02;  ///< bisection stops at this knob resolution
  AnalysisConfig analysis;
};

/// Breakdown utilization of `method` on the job set drawn with `seed` from
/// `shop` (the shop's own utilization field is ignored). Returns 0 when
/// even `lo` is rejected.
[[nodiscard]] double breakdown_utilization(const JobShopConfig& shop,
                                           Method method, std::uint64_t seed,
                                           const BreakdownConfig& config = {});

}  // namespace rta
