// Phase Modification synchronization (Bettati [4]; compared against Direct
// Synchronization in Sun & Liu [1] and in the paper's introduction).
//
// Under PM, the release of hop j+1 is not the completion of hop j (direct
// synchronization) but a *scheduled slot*: a fixed offset after the job
// instance's original release, chosen so the predecessor hop is guaranteed
// complete by then. Each hop then sees perfectly periodic arrivals (zero
// jitter), so classical per-hop busy-period analysis applies with J = 0 --
// this is the analytical appeal of PM the intro describes. The cost is
// idling: instances that finish a hop early still wait for their slot, which
// *increases average* end-to-end response. bench/sync_protocols quantifies
// both effects against the DS analyzers and the simulator.
//
// Applicability: periodic jobs, SPP processors (like the S&L baseline).
#pragma once

#include <vector>

#include "analysis/result.hpp"
#include "model/system.hpp"
#include "sim/simulator.hpp"

namespace rta {

class PhaseModAnalyzer {
 public:
  /// Computes per-hop worst-case responses with zero release jitter and
  /// accumulates them into offsets. The end-to-end bound of job k is
  /// offsets[k][last] + r[k][last]; schedulability is checked against the
  /// deadline as usual. `schedule` (optional) receives the offsets.
  [[nodiscard]] AnalysisResult analyze(const System& system,
                                       PhaseSchedule* schedule = nullptr) const;
};

}  // namespace rta
