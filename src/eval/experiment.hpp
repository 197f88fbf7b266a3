// Admission-probability experiments (paper §5).
//
// For each utilization point, `trials` random job sets are generated
// (identical sets across methods and, draw-for-draw, across utilizations);
// each analysis method admits a set iff every job's response-time bound
// meets its deadline. The admission probability is the admitted fraction.
// Trials run in parallel with per-trial deterministic RNG streams, so
// results are independent of the worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"  // Method, method_name, analyze_with
#include "analysis/result.hpp"
#include "workload/jobshop.hpp"

namespace rta {

/// One cell of an admission-probability table.
struct AdmissionPoint {
  double utilization = 0.0;
  Method method = Method::kSppExact;
  std::size_t admitted = 0;
  std::size_t trials = 0;

  [[nodiscard]] double probability() const {
    return trials ? static_cast<double>(admitted) / static_cast<double>(trials)
                  : 0.0;
  }
};

struct AdmissionConfig {
  JobShopConfig shop;  ///< utilization and scheduler overridden per point
  std::vector<double> utilizations;
  std::vector<Method> methods;
  std::size_t trials = 1000;
  std::uint64_t seed = 42;
  /// Trial workers, resolved by resolve_workers (util/thread_pool.hpp):
  /// 1 = serial, 0 = hardware concurrency. Each trial analyzes serially.
  int threads = 0;
};

/// Run the full grid; returns utilizations.size() * methods.size() points in
/// (utilization-major, method-minor) order.
[[nodiscard]] std::vector<AdmissionPoint> run_admission_experiment(
    const AdmissionConfig& config);

}  // namespace rta
