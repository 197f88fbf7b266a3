#include "support/utilization.hpp"

#include <cmath>

namespace rta {

double liu_layland_bound(std::size_t n) {
  if (n == 0) return 1.0;
  const double nn = static_cast<double>(n);
  return nn * (std::pow(2.0, 1.0 / nn) - 1.0);
}

std::vector<double> processor_utilizations(const System& system) {
  std::vector<double> util(system.processor_count(), 0.0);
  for (int k = 0; k < system.job_count(); ++k) {
    const Job& job = system.job(k);
    const Time period = job.arrivals.min_inter_arrival();
    if (std::isinf(period)) continue;
    for (const Subjob& s : job.chain) {
      util[s.processor] += s.exec_time / period;
    }
  }
  return util;
}

bool liu_layland_schedulable(const System& system) {
  const std::vector<double> util = processor_utilizations(system);
  for (int p = 0; p < system.processor_count(); ++p) {
    const std::size_t n = system.subjobs_on(p).size();
    if (util[p] > liu_layland_bound(n) + 1e-12) return false;
  }
  return true;
}

}  // namespace rta
