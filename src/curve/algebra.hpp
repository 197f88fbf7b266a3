// Pointwise algebra on piecewise-linear curves, plus the builders behind the
// closed-form Theorem 5/6 bounds (prefix-minimum steps, hinge envelopes and
// their composition with a curve).
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

/// Theorem 2 / Lemmas 1-2: counting curve f(t) = floor(S(t) / tau) as a unit
/// step curve. S must be nondecreasing; tau > 0. Uses a tolerant floor so a
/// service level epsilon below k*tau still counts k completions.
[[nodiscard]] PwlCurve curve_floor_div(const PwlCurve& s, double tau);

/// First instant t with a(t) >= y (value tolerance applied), or kTimeInfinity
/// if the level is never reached within the horizon. Works on non-monotone
/// curves (unlike pseudo_inverse); for nondecreasing curves it coincides with
/// pseudo_inverse.
[[nodiscard]] Time curve_first_crossing(const PwlCurve& a, double y);

/// Counting curve with a unit jump at the first instant a(t) >= k*tau, for
/// k = 1, 2, ...; the non-monotone-safe analogue of curve_floor_div, used to
/// turn *upper* service bounds into next-hop arrival-count upper bounds.
/// One knot scan that resumes across levels: O(knots + levels), with the
/// same jump times as calling curve_first_crossing per level.
[[nodiscard]] PwlCurve curve_crossing_counts(const PwlCurve& a, double tau);

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

  /// Breakpoint abscissae (strictly increasing) and values.
  [[nodiscard]] const std::vector<double>& breakpoints() const { return q_; }
  [[nodiscard]] const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> q_;
  std::vector<double> v_;
};

/// Exact composition g(a(t)). `a` may be non-monotone and may jump either
/// way; since g is continuous, each jump of `a` maps to a jump of the result
/// and each linear segment of `a` maps to a piecewise-linear run with a knot
/// wherever a(t) passes a breakpoint of g.
[[nodiscard]] PwlCurve curve_compose(const HingeEnvelope& g,
                                     const PwlCurve& a);

}  // namespace rta
