// Exact end-to-end response-time analysis for SPP systems (paper §4.1).
//
// Computes the exact service function of every subjob via Theorem 3, chains
// departures to next-hop arrivals via Theorem 2 / the direct-synchronization
// identity f_dep(k,j) = f_arr(k,j+1), and evaluates Theorem 1:
//
//   d_k = max_m ( f^{-1}_{k,n_k,dep}(m) - f^{-1}_{k,1,arr}(m) ).
//
// "Exact" is with respect to the given finite release trace: the analysis
// reproduces, instant for instant, what a preemptive static-priority
// processor does with those releases (the property tests check this against
// the discrete-event simulator).
//
// Requirements: every processor uses SPP, and the subjob dependency graph is
// acyclic (true for the paper's staged job shop). Cyclic topologies are
// handled by IterativeBoundsAnalyzer.
#pragma once

#include "analysis/order.hpp"
#include "analysis/result.hpp"
#include "model/system.hpp"

namespace rta {

class ExactSppAnalyzer {
 public:
  explicit ExactSppAnalyzer(AnalysisConfig config = {}) : config_(config) {}

  [[nodiscard]] AnalysisResult analyze(const System& system) const;

  /// Name used in reports and experiment tables.
  [[nodiscard]] static const char* name() { return "SPP/Exact"; }

 private:
  [[nodiscard]] AnalysisResult analyze_at(const System& system,
                                          const DependencyOrder& order,
                                          Time horizon) const;

  AnalysisConfig config_;
};

}  // namespace rta
