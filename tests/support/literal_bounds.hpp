// Theorems 5/6 exactly as printed (Eqs. 16-19), for measuring how unsound
// they are.
//
// The shipped bounds analyzers evaluate only the sound per-queue-empty-
// candidate forms (analysis/bounds.hpp). The printed forms are wrong in
// three documented ways (DESIGN.md, "Soundness findings"): Eq. 17 subtracts
// the higher-priority service LOWER bounds from the lower availability, the
// min-window of Theorem 5 charges the blocking b once globally instead of
// once per backlogged period, and the interference increment mixes bound
// directions. This transcription reproduces them so that
// bench/literal_soundness can count violations against the simulator and
// tests/test_bounds.cpp can pin the two-subjob counterexample. It lives in
// the test-only rta_test_support library; nothing under src/ links it.
#pragma once

#include "analysis/bounds.hpp"

namespace rta::literal {

/// Right running minimum R(t) = inf_{t <= s <= horizon} a(s): the monotone
/// tightening of an upper bound on a nondecreasing function, which Eq. 19's
/// availability needs. Implemented by reflecting the curve and reusing
/// curve_running_max. Exact for continuous curves; at a jump of `a` the
/// reflection additionally admits the left limit, so restrict use to
/// continuous curves (asserted).
[[nodiscard]] PwlCurve curve_right_running_min(const PwlCurve& a);

/// Serial end-to-end analysis with Eqs. 16-19 as printed for every subjob:
/// validates the system, rejects dependency cycles and FCFS processors, then
/// visits the subjobs in topological order at the default horizon (doubled
/// while some job is unbounded, as the shipped analyzers do) and assembles
/// the report with detail::bounds_result_from_states.
[[nodiscard]] AnalysisResult analyze(const System& system,
                                     const AnalysisConfig& config = {});

}  // namespace rta::literal
