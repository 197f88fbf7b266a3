// Trace-independent end-to-end analysis from arrival envelopes.
//
// Where §4 of the paper analyzes one concrete release trace, this module
// derives bounds that hold for EVERY trace conforming to per-job arrival
// envelopes (support/envelope.hpp) -- the interval-domain counterpart built on
// the same Cruz-style calculus the paper cites [20, 21]:
//
//   * each subjob on a priority processor receives the strict service curve
//       beta(D) = max(0, D - b - sum_hp alpha_hp(D) * tau_hp),
//     where b is the Eq. 15 blocking (0 under SPP) and alpha_hp are the
//     higher-priority subjobs' envelopes at this hop;
//   * a FCFS processor serves the aggregate FIFO, so every subjob on it sees
//       beta(D) = D   against   the aggregate workload sum_i alpha_i tau_i;
//   * the local response bound is the horizontal deviation
//       d = sup_{D >= 0} ( beta^{-1}( alpha(D) tau ) - D ),
//     infinite when the long-run rates leave no slack;
//   * hop j's delay jitter (d_j - tau_j) widens the next hop's envelope:
//       alpha_{j+1}(D) = alpha_j(D + d_j - tau_j)   (classical propagation);
//   * end-to-end: d_k = sum_j d_{k,j}, as in Theorem 4.
//
// Results are generally looser than the finite-trace analysis (they cover
// all conforming traces, including adversarial phasings), and must dominate
// it on any conforming trace -- a property the tests check against both the
// trace analyzers and the simulator.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/system.hpp"
#include "support/envelope.hpp"

namespace rta {

/// Per-job result of the envelope analysis.
struct EnvelopeJobReport {
  Time wcrt = 0.0;  ///< end-to-end bound over all conforming traces
  bool schedulable = false;
  std::vector<Time> hop_bounds;  ///< local d_{k,j}
};

struct EnvelopeResult {
  bool ok = false;
  std::string error;
  std::vector<EnvelopeJobReport> jobs;

  [[nodiscard]] bool all_schedulable() const {
    if (!ok) return false;
    for (const auto& j : jobs) {
      if (!j.schedulable) return false;
    }
    return true;
  }
};

/// The curves are evaluated on the longest envelope span (at least 1); a
/// local bound above four such spans is reported as infinity.
class EnvelopeAnalyzer {
 public:
  /// Analyze `system` with one arrival envelope per job (for its first
  /// hop), in job order. Requires an acyclic dependency graph.
  [[nodiscard]] EnvelopeResult analyze(
      const System& system, const std::vector<ArrivalEnvelope>& envelopes) const;

  /// Convenience: derive each job's envelope empirically from its release
  /// trace (ArrivalEnvelope::from_trace, over the last release time, at
  /// least 1) and analyze.
  [[nodiscard]] EnvelopeResult analyze_from_traces(const System& system) const;
};

/// Horizontal deviation sup_D ( beta^{-1}(alpha_workload(D)) - D ), the
/// classical delay bound; `alpha_workload` and `beta` share a span.
/// Returns kTimeInfinity when the deviation exceeds `cap`.
[[nodiscard]] Time horizontal_deviation(const PwlCurve& alpha_workload,
                                        const PwlCurve& beta, Time cap);

}  // namespace rta
