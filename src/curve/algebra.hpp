// Pointwise algebra on piecewise-linear curves, plus the builders behind the
// closed-form Theorem 5/6 bounds (prefix-minimum steps, hinge envelopes and
// their composition with a curve, the n-ary min of sums, and Lemma 2's
// next-hop arrival bound from jump lists).
//
// All binary operations require both operands to share the same horizon
// (asserted); analyzers construct every curve of a system on one common
// analysis horizon. Results are exact: min/max insert segment-crossing
// knots, so no operation loses information.
#pragma once

#include <vector>

#include "curve/pwl_curve.hpp"

namespace rta {

/// a + b.
[[nodiscard]] PwlCurve curve_add(const PwlCurve& a, const PwlCurve& b);

/// a - b (may be non-monotone).
[[nodiscard]] PwlCurve curve_sub(const PwlCurve& a, const PwlCurve& b);

/// Pointwise min(a, b).
[[nodiscard]] PwlCurve curve_min(const PwlCurve& a, const PwlCurve& b);

/// Pointwise max(a, b).
[[nodiscard]] PwlCurve curve_max(const PwlCurve& a, const PwlCurve& b);

/// factor * a.
[[nodiscard]] PwlCurve curve_scale(const PwlCurve& a, double factor);

/// a + value.
[[nodiscard]] PwlCurve curve_add_constant(const PwlCurve& a, double value);

/// max(a, floor_value) -- e.g. clamping intermediates to be nonnegative.
[[nodiscard]] PwlCurve curve_clamp_min(const PwlCurve& a, double floor_value);

/// g(t) = a(t - dt) for t >= dt, and a(0) for t < dt (dt >= 0). The horizon
/// is preserved; the tail of `a` beyond horizon - dt is discarded.
[[nodiscard]] PwlCurve curve_shift_right(const PwlCurve& a, Time dt);

/// Running maximum M(t) = max_{0 <= s <= t} a(s) (includes left limits, so a
/// downward jump does not lower M).
[[nodiscard]] PwlCurve curve_running_max(const PwlCurve& a);

/// Sum of a set of curves in one pass over the merged knot grid, summed in
/// input order at each grid point. The empty set gives the zero curve of
/// `horizon`; a single curve is returned as is (shared storage).
[[nodiscard]] PwlCurve curve_sum(const std::vector<PwlCurve>& curves,
                                 Time horizon);

/// base - sum of `consumed` + offset, on the same one-pass kernel as
/// curve_sum: the availability left over once the consumed curves are
/// served (e.g. t - b - S̄hp). No intermediate sum curve is built.
[[nodiscard]] PwlCurve curve_available(const PwlCurve& base,
                                       const std::vector<PwlCurve>& consumed,
                                       double offset = 0.0);

/// One term a + b + offset of curve_min_of_sums; b is optional.
struct SumTerm {
  const PwlCurve* a = nullptr;
  const PwlCurve* b = nullptr;
  double offset = 0.0;
};

/// Pointwise min over the terms a_k + b_k + offset_k in one pass over the
/// merged knot grid of every operand: each term is linear between grid
/// points, so the crossings of every pair of terms, found from the values
/// at each interval's ends, are all the knots the min needs. One finalize,
/// one report, no intermediate sum or min curve.
[[nodiscard]] PwlCurve curve_min_of_sums(const std::vector<SumTerm>& terms);

/// Theorem 2 / Lemmas 1-2: counting curve f(t) = floor(S(t) / tau) as a unit
/// step curve. S must be nondecreasing; tau > 0. Uses a tolerant floor so a
/// service level epsilon below k*tau still counts k completions. The levels
/// k * tau are one PinvSweep over S.
[[nodiscard]] PwlCurve curve_floor_div(const PwlCurve& s, double tau);

/// First instant t with a(t) >= y (value tolerance applied), or kTimeInfinity
/// if the level is never reached within the horizon. Works on non-monotone
/// curves (unlike pseudo_inverse); for nondecreasing curves it coincides with
/// pseudo_inverse.
[[nodiscard]] Time curve_first_crossing(const PwlCurve& a, double y);

/// Lemma 2's next-hop arrival-count upper bound min(C, curve_shift_right(a,
/// tau)) for a counting step curve `a` (integer jumps), where C is the
/// crossing count of the upper service bound `s`: a unit jump at the first
/// instant s(t) >= k*tau, for k = 1, 2, ... (the non-monotone-safe analogue
/// of curve_floor_div). C's jumps come from one knot scan that resumes
/// across levels, O(knots + levels), at the same times as calling
/// curve_first_crossing per level. The result is built from the two jump
/// lists with one PwlCurve::step and no pointwise pass: the min of two
/// unit-step counting curves takes its k-th jump at the later of their k-th
/// jumps (at the earlier one when the two are time_eq, where the merged grid
/// of the pointwise min would place it).
[[nodiscard]] PwlCurve curve_crossing_counts_min_shift(const PwlCurve& s,
                                                       const PwlCurve& a,
                                                       double tau);

/// Non-increasing step curve P(t) = min{ values[i] : times[i] <= t } on
/// [0, horizon]. `times` must be nondecreasing with times[0] = 0, so P is
/// finite everywhere; entries past the horizon are ignored, and an entry at
/// the horizon applies at t = horizon only.
[[nodiscard]] PwlCurve curve_prefix_min_steps(
    Time horizon, const std::vector<Time>& times,
    const std::vector<double>& values);

/// One hinge h(q) = base + max(0, q - knee).
struct Hinge {
  double base = 0.0;
  double knee = 0.0;
};

/// Lower envelope g(q) = min_i h_i(q) of a non-empty set of hinges. g is
/// continuous and nondecreasing with slopes 0 and 1 only; it is stored as
/// the breakpoints where the slope changes (flat before the first, slope 1
/// after the last, alternating in between), at most 2n + 1 of them. Built
/// in O(n log n).
class HingeEnvelope {
 public:
  explicit HingeEnvelope(std::vector<Hinge> hinges);

  /// g(q).
  [[nodiscard]] double operator()(double q) const;

  /// g(q), given `above` = the index of the first breakpoint greater than q
  /// (std::upper_bound over breakpoints()), for callers that track it.
  [[nodiscard]] double at(double q, std::size_t above) const;

  /// Breakpoint abscissae (strictly increasing) and values.
  [[nodiscard]] const std::vector<double>& breakpoints() const { return q_; }
  [[nodiscard]] const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> q_;
  std::vector<double> v_;
};

/// Running maximum of min(g(a(t)), cap(t)) (curve_running_max of the capped
/// composition, as tighten_lower_bound takes it) in one pass over the merged
/// knot grid of `a` and `cap`. `a` may be non-monotone and may jump either
/// way; since g is continuous, the composition g(a(t)) is exact: each jump of
/// `a` maps to a jump and each linear segment of `a` to a piecewise-linear
/// run with a knot wherever a(t) passes a breakpoint of g. The composition's
/// knots, its crossings with the cap and the running maximum are produced as
/// the grid is walked, and only the result is finalized.
[[nodiscard]] PwlCurve curve_compose_capped_max(const HingeEnvelope& g,
                                                const PwlCurve& a,
                                                const PwlCurve& cap);

}  // namespace rta
