// Piecewise-linear curves on a finite horizon [0, H].
//
// This is the mathematical substrate for the paper's analysis: arrival,
// departure, workload, service and utilization functions (Defs. 1-4 and 7)
// are all curves of this kind. A curve is represented by knots
//
//   (t_i, left_i, right_i),  0 = t_0 < t_1 < ... < t_{n-1} = H,
//
// with value right_i at t_i, limit left_i as s -> t_i from below, and linear
// interpolation from (t_i, right_i) to (t_{i+1}, left_{i+1}) in between.
// Curves are right-continuous; upward jumps (left_i < right_i) model
// instantaneous arrivals, and are the reason the class distinguishes eval()
// from eval_left() -- the paper's min_{0<=s<=t} formulas require left limits
// (see DESIGN.md, "Semantics note").
//
// Storage is a flat structure-of-arrays CurveData (curve/curve_arena.hpp)
// shared by handle: PwlCurve is a thin view, copies are O(1), and the knot
// arrays are contiguous for the flat kernels in algebra.cpp / transforms.cpp.
// The knot-vector API (constructor, knots()) is preserved for construction,
// io and tests; knots() now materializes a vector on demand.
//
// Curves are immutable after construction; all algebra lives in
// curve/algebra.hpp and curve/transforms.hpp.
#pragma once

#include <cassert>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "curve/curve_arena.hpp"
#include "util/time.hpp"

namespace rta {

/// One breakpoint of a piecewise-linear curve.
struct Knot {
  Time t = 0.0;
  double left = 0.0;   ///< limit of the curve as s -> t from below
  double right = 0.0;  ///< value at t (curves are right-continuous)
};

/// Immutable piecewise-linear function on [0, horizon].
///
/// The class itself permits non-monotone curves (intermediate expressions
/// like A(s) - c(s) decrease); monotonicity is an invariant of *particular*
/// curves (arrival counts, service functions) and can be checked with
/// is_nondecreasing().
class PwlCurve {
 public:
  PwlCurve() : data_(CurveData::zero_knot()) {}

  /// Construct from knots. Requirements: non-empty, t strictly increasing,
  /// first knot at t = 0. Violations are fixed up where harmless (knots with
  /// time_eq-equal abscissae are merged) and asserted otherwise.
  explicit PwlCurve(std::vector<Knot> knots);

  /// Adopt finalized storage (the kernels' path: CurveArena::finalize()).
  explicit PwlCurve(std::shared_ptr<const CurveData> data)
      : data_(std::move(data)) {
    assert(data_ != nullptr && data_->size() >= 1);
  }

  /// The constant-zero curve on [0, horizon].
  static PwlCurve zero(Time horizon);

  /// The constant curve f(t) = value on [0, horizon].
  static PwlCurve constant(Time horizon, double value);

  /// The identity f(t) = t on [0, horizon] (the trivial service upper bound
  /// of Eq. 5).
  static PwlCurve identity(Time horizon);

  /// Right-continuous counting step function: f(t) = #{i : jump_times[i] <= t}
  /// on [0, horizon], each jump of height `step`. jump_times must be sorted;
  /// times beyond the horizon are ignored.
  static PwlCurve step(Time horizon, const std::vector<Time>& jump_times,
                       double step_height = 1.0);

  /// Line through the origin with the given slope, on [0, horizon].
  static PwlCurve line(Time horizon, double slope);

  [[nodiscard]] Time horizon() const {
    return data_->times()[data_->size() - 1];
  }

  /// Knot vector, materialized from the flat storage (construction / io /
  /// test convenience; kernels read the flat arrays instead).
  [[nodiscard]] std::vector<Knot> knots() const;

  [[nodiscard]] std::size_t knot_count() const { return data_->size(); }

  /// Flat accessors. Pointers stay valid while any PwlCurve shares the
  /// storage (see docs/api.md, "Curve memory layout").
  [[nodiscard]] CurveView view() const {
    return CurveView{data_->times(), data_->lefts(), data_->rights(),
                     data_->size()};
  }
  [[nodiscard]] const double* times() const { return data_->times(); }
  [[nodiscard]] const double* lefts() const { return data_->lefts(); }
  [[nodiscard]] const double* rights() const { return data_->rights(); }
  [[nodiscard]] Time knot_time(std::size_t i) const {
    return data_->times()[i];
  }
  [[nodiscard]] double knot_left(std::size_t i) const {
    return data_->lefts()[i];
  }
  [[nodiscard]] double knot_right(std::size_t i) const {
    return data_->rights()[i];
  }

  /// Shared immutable storage (identity comparisons).
  [[nodiscard]] const std::shared_ptr<const CurveData>& data() const {
    return data_;
  }

  /// f(t), right-continuous. t is clamped to [0, horizon]; instants within
  /// time tolerance of a knot snap to the knot.
  [[nodiscard]] double eval(Time t) const { return flat_eval(view(), t); }

  /// lim_{s -> t-} f(s). For t <= 0 returns f(0).
  [[nodiscard]] double eval_left(Time t) const {
    return flat_eval_left(view(), t);
  }

  /// Value at the end of the horizon.
  [[nodiscard]] double end_value() const {
    return data_->rights()[data_->size() - 1];
  }

  /// Pseudo-inverse f^{-1}(y) = min{ s : f(s) >= y } (Def. 5 in the paper).
  /// Requires a nondecreasing curve. Returns 0 if y <= f(0) and
  /// kTimeInfinity if y > f(horizon) (the crossing, if any, lies beyond the
  /// analyzed horizon).
  [[nodiscard]] Time pseudo_inverse(double y) const;

  /// True iff the curve never decreases (within value tolerance).
  [[nodiscard]] bool is_nondecreasing() const;

  /// True iff the curve is continuous (no jumps within value tolerance).
  [[nodiscard]] bool is_continuous() const;

  /// True iff both curves agree within tolerance at all knots of either.
  [[nodiscard]] bool approx_equal(const PwlCurve& other,
                                  double tol = 1e-7) const;

  /// Maximum over the merged knot grid of |this - other|.
  [[nodiscard]] double max_abs_difference(const PwlCurve& other) const;

  /// Human-readable dump (for tests and debugging).
  [[nodiscard]] std::string to_string() const;

  /// Structural invariants (knot ordering, first knot at 0). Used in tests.
  [[nodiscard]] bool check_invariants() const;

 private:
  std::shared_ptr<const CurveData> data_;
};

std::ostream& operator<<(std::ostream& os, const PwlCurve& c);

/// Pseudo-inverse sweep over one nondecreasing curve: next(y) returns
/// curve.pseudo_inverse(y), bit for bit, finding the crossing knot by
/// stepping from the previous query's knot instead of a binary search. For
/// nondecreasing levels a whole sweep costs O(levels + knots); other query
/// orders stay correct (the knot index walks either way). Each next() counts
/// as one pseudo-inverse evaluation for the kernel hooks. Holds a view of
/// the curve's storage: the curve must outlive the sweep.
class PinvSweep {
 public:
  explicit PinvSweep(const PwlCurve& curve);

  [[nodiscard]] Time next(double y);

 private:
  CurveView v_;
  std::size_t i_ = 0;  ///< first knot whose right value reaches the last y
};

/// Exact (bitwise) knot-storage equality. Stricter than
/// PwlCurve::approx_equal: two curves are identical exactly when recomputing
/// any operation on them yields bit-identical results. O(1) for curves that
/// share storage or differ in knot count.
[[nodiscard]] inline bool curves_identical(const PwlCurve& a,
                                           const PwlCurve& b) {
  return CurveData::identical(*a.data(), *b.data());
}

}  // namespace rta
