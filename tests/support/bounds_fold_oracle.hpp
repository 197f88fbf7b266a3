// Test-only oracles for the closed-form Theorem 5/6 service bounds.
//
// compute_single_priority_subjob (analysis/bounds.cpp) evaluates the sound
// per-queue-empty-candidate bounds in closed form: a hinge envelope composed
// with Q̲ for S̲, prefix-minimum step curves for S̄, and a resumed scan for
// the Lemma 2 crossing counts. The functions here evaluate the same
// definitions the direct way -- one full-horizon curve per arrival
// candidate, folded with curve_min, and one first-crossing scan from t = 0
// per level -- at O(n·K) cost. They exist only to check the closed forms;
// nothing under src/ links them.
#pragma once

#include "analysis/bounds.hpp"

namespace rta::oracle {

/// The per-arrival fold of the sound Theorem 5/6 bounds for one subjob on a
/// static-priority processor, with the same inputs and outputs as
/// detail::compute_single_priority_subjob. Upper-bound
/// terms for i >= 1 apply only once their candidate has arrived (t >= s_i),
/// including a candidate at the horizon.
void fold_priority_subjob(const System& system, SubjobRef ref, Time horizon,
                          detail::BoundStateMap& states);

/// Lemma 2 counting curve by one curve_first_crossing scan per level k*tau,
/// each from t = 0.
[[nodiscard]] PwlCurve crossing_counts_per_level(const PwlCurve& a,
                                                 double tau);

}  // namespace rta::oracle
