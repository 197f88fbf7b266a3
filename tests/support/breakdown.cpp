#include "support/breakdown.hpp"

#include "model/priority.hpp"

namespace rta {

namespace {

bool admits_at(const JobShopConfig& shop, Method method, std::uint64_t seed,
               double utilization, const AnalysisConfig& analysis) {
  JobShopConfig cfg = shop;
  cfg.utilization = utilization;
  cfg.scheduler = method_scheduler(method);
  // Same seed -> same draws: the set is identical across knob values except
  // for the linear execution-time scaling.
  Rng rng(seed);
  System sys = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(sys);
  const AnalysisResult r = analyze_with(method, sys, analysis);
  return r.ok && r.all_schedulable();
}

}  // namespace

double breakdown_utilization(const JobShopConfig& shop, Method method,
                             std::uint64_t seed,
                             const BreakdownConfig& config) {
  double lo = config.lo;
  double hi = config.hi;
  if (!admits_at(shop, method, seed, lo, config.analysis)) return 0.0;
  if (admits_at(shop, method, seed, hi, config.analysis)) return hi;
  while (hi - lo > config.tol) {
    const double mid = 0.5 * (lo + hi);
    if (admits_at(shop, method, seed, mid, config.analysis)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace rta
