// Approximate end-to-end analysis via service-function bounds (paper §4.2).
//
// For every subjob the analyzer maintains upper/lower bounds on its arrival
// count curve and derives upper/lower bounds on its service function:
//
//   * SPNP processors: Theorems 5/6 with blocking b_{k,j} of Eq. 15.
//   * SPP processors:  the same bounds with b = 0 (an "SPP/App" method the
//     paper does not evaluate; useful as an ablation against SPP/Exact).
//   * FCFS processors: Theorems 7/8/9 via the utilization function.
//
// Lower service bounds yield departure lower bounds (Lemma 1); upper service
// bounds yield next-hop arrival upper bounds (Lemma 2), additionally capped
// by "an instance cannot reach hop j+1 earlier than tau after its earliest
// hop-j arrival". Per-hop delays d_{k,j} (Eq. 12) sum to the end-to-end
// bound (Theorem 4 / Eq. 11).
//
// Soundness deviations from the paper's text (validated against the
// discrete-event simulator; see DESIGN.md and tests/test_sim_vs_analysis.cpp).
// Only the repaired forms below are implemented here; the printed Eqs. 16-19
// survive solely as a test-only transcription (tests/support/literal_bounds)
// that bench/literal_soundness measures:
//
//   1. Eq. 17 prints the *lower* availability for T_{k,j} as
//      t - b - sum of LOWER bounds of higher-priority service. Subtracting a
//      lower bound of the interference over-estimates the availability,
//      which is unsound for a lower bound (two-subjob counterexample in
//      tests/test_bounds.cpp). Upper bounds S̄_{h,i} must be subtracted,
//      symmetric to Eq. 19.
//   2. Theorem 5's window min_{0<=s<=t-b} charges the blocking b only once
//      globally; after the subjob's queue drains and refills, a fresh
//      blocking can occur, which the formula misses (the simulator refutes
//      it on the paper's own SPNP workloads). We therefore evaluate both
//      bounds per *queue-empty candidate* s_i (one candidate just before
//      each possible arrival):
//
//        S̲(t) = min_i max( base_i,
//                 base_i + (t - s_i) - b - (S̄hp(t) - S̲hp(s_i)) ),
//          with s_i the LATEST possible i-th arrival and base_i = (i-1) tau
//          -- blocking is charged once per backlogged period, and the
//          higher-priority consumption over (s_i, t] is bounded by mixing
//          the hp upper bound at t with the hp lower bound at s_i;
//
//        S̄(t) = min( t, c̄(t), min_{i : s_i <= t} [ base_i + min( t - s_i,
//                 (t - s_i) - (S̲hp(t) - S̄hp(s_i)) ) ] ),
//          with s_i the EARLIEST possible i-th arrival -- every term is
//          independently a valid upper bound once its candidate has
//          arrived, so the min is sound.
//
//      This keeps the structure of Theorems 5/6 (availability differences
//      plus demanded work) while being sound busy-period by busy-period.
//      Both are evaluated in closed form, at a kernel-call count
//      independent of the number of candidates (see bounds.cpp and
//      docs/theory.md, "Evaluating them in closed form").
//
// Heterogeneous systems (different schedulers per processor, §6) are
// supported directly. Requires an acyclic dependency graph; cyclic systems
// are handled by IterativeBoundsAnalyzer, which reuses this machinery.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/instrument.hpp"
#include "analysis/order.hpp"
#include "analysis/result.hpp"
#include "model/system.hpp"
#include "util/thread_pool.hpp"

namespace rta {

namespace detail {

/// Working state for one subjob during a bounds sweep.
struct BoundState {
  PwlCurve arr_upper;   ///< f̄_arr of this hop
  PwlCurve arr_lower;   ///< f̲_arr of this hop
  PwlCurve svc_upper;   ///< S̄ (may be non-monotone; query via crossings)
  PwlCurve svc_lower;   ///< S̲ (monotone)
  PwlCurve dep_lower;   ///< f̲_dep = floor(S̲ / tau) (Lemma 1)
  PwlCurve next_arr_upper;  ///< f̄_arr of hop+1 (Lemma 2 + shift cap)
  Time local_bound = 0.0;   ///< d_{k,j} of Eq. 12
  bool computed = false;
};

using BoundStateMap = std::map<std::pair<int, int>, BoundState>;

/// Compute bounds for every subjob on processor `p`. The arr_upper/arr_lower
/// members of each subjob on `p` must already be set in `states`.
void compute_processor_bounds(const System& system, int p, Time horizon,
                              BoundStateMap& states);

/// The higher-priority operands of one priority unit (Theorems 5/6): the S̄
/// and S̲ handles of the subjobs that outrank it on its processor, in
/// System::higher_priority_on order, the identity at the horizon, and
/// Q̲ = t - b - Σ S̄hp (one curve_available pass, built with the operands).
/// Q̄ = t - Σ S̲hp is built the first time q_upper() is called, so a caller
/// that runs only the lower part never builds it.
class HpOperands {
 public:
  HpOperands(std::vector<PwlCurve> upper, std::vector<PwlCurve> lower,
             double blocking, Time horizon);

  [[nodiscard]] const std::vector<PwlCurve>& upper() const { return upper_; }
  [[nodiscard]] const std::vector<PwlCurve>& lower() const { return lower_; }
  [[nodiscard]] const PwlCurve& ident() const { return ident_; }
  [[nodiscard]] const PwlCurve& q_lower() const { return q_lower_; }
  [[nodiscard]] const PwlCurve& q_upper();

 private:
  std::vector<PwlCurve> upper_;
  std::vector<PwlCurve> lower_;
  PwlCurve ident_;
  PwlCurve q_lower_;
  std::optional<PwlCurve> q_upper_;
};

/// One priority unit in three parts, split by what reads them:
///
///   * priority_hp_operands: the unit's HpOperands, read from the computed
///     states of the subjobs that outrank `ref` (b = 0 under SPP, Eq. 15
///     under SPNP);
///   * priority_lower_part: S̲ (Theorem 5), f̲_dep (Lemma 1) and d_{k,j}
///     (Eq. 12) -- everything Eq. 11's sum reads;
///   * priority_upper_part: S̄ (Theorem 6) and the next hop's f̄_arr
///     (Lemma 2), read only by the next hop and by lower-priority subjobs;
///     it marks the state computed.
///
/// The parts call pure kernels on disjoint outputs, so running them in any
/// order gives the same bits. compute_single_priority_subjob (the general
/// wavefront) runs all three. The fast what-if path of
/// service::AdmissionSession shares one HpOperands per processor across
/// candidates and runs only the lower part on a candidate's last hop, whose
/// S̄ nothing reads. Both parts need `st`'s arrival bounds set.
[[nodiscard]] HpOperands priority_hp_operands(const System& system,
                                              SubjobRef ref, Time horizon,
                                              const BoundStateMap& states);
void priority_lower_part(const HpOperands& hp, double tau, Time horizon,
                         BoundState& st);
void priority_upper_part(HpOperands& hp, double tau, Time horizon,
                         BoundState& st);

/// Compute bounds for one subjob on a static-priority processor: all three
/// parts above. Its arrival bounds and the service bounds of all
/// higher-priority subjobs on the processor must already be present in
/// `states`.
void compute_single_priority_subjob(const System& system, SubjobRef ref,
                                    Time horizon, BoundStateMap& states);

/// d_{k,j} = max_m ( f̲_dep^{-1}(m) - f̄_arr^{-1}(m) ) over the released
/// instances (Eq. 12); kTimeInfinity if some instance's departure cannot be
/// bounded within the horizon.
[[nodiscard]] Time local_delay_bound(const PwlCurve& dep_lower,
                                     const PwlCurve& arr_upper);

/// Set `ref`'s arrival bounds in `states` (its entry must exist): the exact
/// release curve at hop 0, else the computed predecessor's next-hop upper
/// bound (Lemma 2) and departure lower bound (Lemma 1) -- the DS identity.
void fill_hop_arrivals(const System& system, SubjobRef ref, Time horizon,
                       BoundStateMap& states);

/// The resumable core of BoundsAnalyzer: one wavefront over `system`'s
/// dependency graph at `horizon`, scheduled by the caller's `order` (its
/// depths are the waves), (re)computing exactly the subjobs whose flag in
/// `dirty` is nonzero (indexed by job-major DependencyGraph node id; nullptr
/// recomputes everything). Requirements for a partial run:
///
///   * `states` holds a computed BoundState for every non-dirty subjob,
///     produced by a previous wavefront at the SAME horizon;
///   * the dirty set is closed under dependency-graph successors and, per
///     touched processor, under the scheduler's coupling (all subjobs on a
///     touched FCFS processor; blocking-affected subjobs under SPNP) --
///     see service::AdmissionSession for the closure construction.
///
/// Under those conditions the resulting states are bit-identical to a full
/// from-scratch wavefront on `system` (the incremental-analysis contract,
/// tests/test_service.cpp). Missing state entries are created; retained
/// clean entries are left untouched.
void run_bounds_wavefront(const System& system, const DependencyOrder& order,
                          Time horizon, ThreadPool* pool,
                          const EngineObs* eobs,
                          const std::vector<char>* dirty,
                          BoundStateMap& states);

/// Job k's end-to-end bound from its computed states for hops 0..hops-1:
/// each hop's Eq. 12 term d_{k,j} in hops[j] (ref and local_bound set) and
/// their Eq. 11 sum, taken in hop order, in wcrt. The one place the
/// end-to-end composition lives; schedulable and curves are left to the
/// caller.
[[nodiscard]] JobReport job_bound(const BoundStateMap& states, int k,
                                  int hops);

/// Assemble the per-job report (Eq. 11/12) from computed states.
[[nodiscard]] AnalysisResult bounds_result_from_states(
    const System& system, Time horizon, bool record_curves,
    const BoundStateMap& states);

}  // namespace detail

/// The approximate analyzer (SPNP/App, FCFS/App, SPP/App and mixes thereof,
/// chosen by each processor's SchedulerKind).
///
/// With AnalysisConfig::threads != 1 the subjob computations are scheduled as
/// a wavefront over the dependency graph and independent units of each wave
/// run concurrently on an internal ThreadPool, bit-identical to the serial
/// engine. analyze() is safe to call concurrently from several threads on
/// one instance (the pool is shared).
class BoundsAnalyzer {
 public:
  explicit BoundsAnalyzer(AnalysisConfig config = {});

  [[nodiscard]] AnalysisResult analyze(const System& system) const;

  [[nodiscard]] static const char* name() { return "Bounds/App"; }

 private:
  [[nodiscard]] AnalysisResult analyze_at(const System& system,
                                          const DependencyOrder& order,
                                          Time horizon) const;

  AnalysisConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<detail::EngineObs> eobs_;  ///< null without an observer
};

}  // namespace rta
