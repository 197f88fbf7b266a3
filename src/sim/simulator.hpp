// Discrete-event simulator of the distributed system (§3 semantics).
//
// Executes the concrete release traces on the modeled processors under
// SPP / SPNP / FCFS scheduling with direct synchronization (completion of
// hop j releases hop j+1 instantly). The simulator is the ground truth the
// analyzers are validated against:
//
//   * ExactSppAnalyzer must match simulated completion times exactly
//     (Theorems 1-3 are exact for SPP);
//   * the bounds analyzers' service curves must bracket the simulated
//     cumulative service, and their response bounds must dominate the
//     simulated response times.
//
// Determinism: simultaneous events are ordered (completions before
// releases, then by (job, hop, instance)), and FCFS ties on equal release
// times are broken by (job, hop, instance). Any tie order is a legal FCFS
// execution; the analysis bounds must hold for all of them.
#pragma once

#include <optional>
#include <vector>

#include "curve/pwl_curve.hpp"
#include "model/system.hpp"
#include "util/time.hpp"

namespace rta {

/// Release/completion instants of one job instance at every hop.
struct InstanceTrace {
  std::vector<Time> hop_release;   ///< release time per hop (inf: never)
  std::vector<Time> hop_complete;  ///< completion time per hop (inf: never)

  /// End-to-end response time; infinity if the last hop never completed.
  [[nodiscard]] Time response() const {
    return hop_complete.back() - hop_release.front();
  }
  [[nodiscard]] bool completed() const {
    return std::isfinite(hop_complete.back());
  }
};

/// Execution interval of a subjob instance on its processor.
struct ServiceSegment {
  Time begin = 0.0;
  Time end = 0.0;
};

/// Everything observed in one simulation run.
struct SimResult {
  Time horizon = 0.0;
  /// traces[k][m-1]: instance m of job k.
  std::vector<std::vector<InstanceTrace>> traces;
  /// Worst observed end-to-end response per job (infinity if an instance
  /// did not complete within the horizon).
  std::vector<Time> worst_response;
  bool all_completed = false;

  /// Execution segments per job, per hop (for service-curve validation).
  std::vector<std::vector<std::vector<ServiceSegment>>> segments;

  /// Cumulative service S_{k,j}(t) observed for a subjob (Def. 4), as a
  /// piecewise-linear curve on [0, horizon].
  [[nodiscard]] PwlCurve service_curve(SubjobRef ref) const;

  /// Observed departure-count step curve f_{k,j,dep} (Def. 2).
  [[nodiscard]] PwlCurve departure_curve(SubjobRef ref) const;
};

/// Run the system on [0, horizon] under direct synchronization (completion
/// of hop j releases hop j+1 immediately). The system must validate()
/// cleanly.
[[nodiscard]] SimResult simulate(const System& system, Time horizon);

/// Release offsets per job and hop relative to each instance's first-hop
/// release; hop 0 offsets must be 0. A Phase Modification analysis derives
/// them from its per-hop response bounds.
struct PhaseSchedule {
  std::vector<std::vector<Time>> offsets;
};

/// Run the system under the Phase Modification protocol: hop h of instance
/// m is released at max(predecessor completion, release_m +
/// schedule.offsets[job][h]). With offsets from a correct analysis the
/// predecessor always finishes by its slot, making per-hop arrivals exactly
/// periodic; an infinite offset falls back to direct synchronization for
/// that hop.
[[nodiscard]] SimResult simulate_phased(const System& system,
                                        const PhaseSchedule& schedule,
                                        Time horizon);

}  // namespace rta
