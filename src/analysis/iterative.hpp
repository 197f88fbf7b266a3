// Fixed-point bounds analysis for cyclic topologies (paper §6, future work).
//
// When jobs visit a processor more than once ("physical loops") or disturb
// each other across processors ("logical loops"), the arrival functions form
// a closed dependency chain and no topological order exists. The paper
// sketches an iteration X^{n+1} = F(X^n) over unknown response times; we
// realize the idea at the level of arrival-curve bounds, which is sound at
// every iteration:
//
//   * initialize each hop's arrival upper bound with the earliest possible
//     arrivals (first-hop releases shifted by the sum of predecessor
//     execution times -- no instance can arrive sooner), and each arrival
//     lower bound with zero (no departure is guaranteed);
//   * repeatedly recompute every processor's service bounds from the current
//     arrival bounds and derive new next-hop arrival bounds;
//   * intersect with the previous bounds (monotone refinement), so the
//     iteration converges; stop at a fixpoint or after max_iterations.
//
// Works for any mix of SPP/SPNP/FCFS processors. On acyclic systems it
// converges to the same result as BoundsAnalyzer (verified in tests).
//
// Parallel engine: within one refinement round the per-processor passes are
// independent (each reads and writes only its own subjobs' states), as are
// the per-job arrival propagations, so with AnalysisConfig::threads != 1
// both run concurrently on an internal ThreadPool. A processor pass whose
// arrival inputs are knot-for-knot unchanged since its last execution is
// skipped outright (its outputs are already in place). Both preserve the
// determinism contract: bounds are bit-identical to the serial engine for
// every thread count, and a skipped pass equals a recomputed one
// (tests/test_differential_engine.cpp).
#pragma once

#include <atomic>
#include <memory>

#include "analysis/instrument.hpp"
#include "analysis/result.hpp"
#include "model/system.hpp"
#include "util/thread_pool.hpp"

namespace rta {

class IterativeBoundsAnalyzer {
 public:
  explicit IterativeBoundsAnalyzer(AnalysisConfig config = {});

  [[nodiscard]] AnalysisResult analyze(const System& system) const;

  [[nodiscard]] static const char* name() { return "Bounds/Iterative"; }

  /// Number of refinement iterations used in the last analyze() call
  /// (diagnostic; last writer wins under concurrent analyze() calls).
  [[nodiscard]] int last_iterations() const {
    return last_iterations_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] AnalysisResult analyze_at(const System& system,
                                          Time horizon) const;

  AnalysisConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<detail::EngineObs> eobs_;  ///< null without an observer
  mutable std::atomic<int> last_iterations_{0};
};

}  // namespace rta
