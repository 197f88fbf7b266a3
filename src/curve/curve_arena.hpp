// Flat structure-of-arrays storage for piecewise-linear curves.
//
// CurveData is the immutable backing store of a finalized curve: breakpoint
// times, left limits and right values live in ONE contiguous buffer laid out
//
//   t[0..n) | left[0..n) | right[0..n),
//
// PwlCurve holds a shared_ptr<const CurveData>, so curve copies are O(1)
// handle copies, and exact identity is a pointer check, then a size check,
// then one memcmp of the buffer.
//
// CurveArena is the reusable scratch builder the curve kernels assemble
// results in: push (t, left, right) triples, then finalize() -- which runs
// the exact canonicalization pipeline of the PwlCurve knot constructor
// (anchor at t = 0, merge tolerance-equal abscissae, drop collinear
// continuous interior knots, pin the first left limit) and copies the
// result into a tight CurveData. Reusing one thread-local arena keeps the
// hot kernels free of per-curve vector<Knot> allocation churn. The arena is
// leaf-only scratch: push and finalize with no other curve operation in
// between (every kernel in curve/ obeys this; finalize() leaves the arena
// cleared for the next use).
//
// CurveView + the flat_eval* helpers are the evaluation substrate shared by
// PwlCurve and the kernels, with two entry points:
//
//   * point queries: flat_eval / flat_eval_left / flat_eval_both, through a
//     SegmentCursor (or a binary search) and the tolerant branch ladder
//     that replicates the knot-based eval/eval_left semantics branch for
//     branch;
//   * sorted sweeps: flat_eval_sweep, which yields both values at every
//     instant of a nondecreasing array and sorts each instant into one of
//     three classes: strictly inside a segment (the segment's
//     interpolation), exactly on an interior knot (that knot's stored left
//     limit and right value), and everything else -- near a knot, on the
//     first or last knot, or outside the curve's span (the ladder).
//
// Both give the same bits, and those are the legacy implementation's
// (proven by tests/test_curve_kernels.cpp against the test-only oracles in
// tests/support/curve_reference.hpp).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

#include "util/time.hpp"

namespace rta {

/// Tolerance used when comparing curve *values* (as opposed to times).
inline constexpr double kValueEps = 1e-7;

/// Immutable SoA storage of one finalized curve. Always holds n >= 1 knots
/// with strictly increasing times starting at 0.
class CurveData {
 public:
  /// Takes a buffer of exactly 3 * n doubles (t | left | right).
  CurveData(std::vector<double> buf, std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const double* times() const { return buf_.data(); }
  [[nodiscard]] const double* lefts() const { return buf_.data() + n_; }
  [[nodiscard]] const double* rights() const {
    return buf_.data() + 2 * n_;
  }

  /// Exact (bitwise) storage equality: pointer, then size, then memcmp.
  [[nodiscard]] static bool identical(const CurveData& a, const CurveData& b);

  /// Shared storage of the default {(0, 0, 0)} curve.
  [[nodiscard]] static const std::shared_ptr<const CurveData>& zero_knot();

 private:
  std::vector<double> buf_;
  std::size_t n_;
};

/// Non-owning flat view of a curve's arrays; valid while the backing
/// CurveData (i.e. any PwlCurve sharing it) is alive.
struct CurveView {
  const double* t = nullptr;
  const double* l = nullptr;
  const double* r = nullptr;
  std::size_t n = 0;
};

/// Index of the last knot with t_i <= q, with tolerance snapping forward to
/// a knot q is epsilon-below. Exact replica of the legacy
/// PwlCurve::segment_index.
[[nodiscard]] inline std::size_t flat_segment_index(const CurveView& v,
                                                    Time q) {
  const std::size_t ub = static_cast<std::size_t>(
      std::upper_bound(v.t, v.t + v.n, q) - v.t);
  std::size_t i = (ub > 0) ? ub - 1 : 0;
  if (i + 1 < v.n && time_eq(q, v.t[i + 1])) ++i;
  return i;
}

/// Incremental replacement for flat_segment_index when queries move mostly
/// in one direction (the kernels' probe loops): the unsnapped base index is
/// maintained by local steps instead of a binary search per query. Correct
/// for arbitrary query sequences (it walks either way), amortized O(1) for
/// monotone ones; always returns exactly flat_segment_index's result.
class SegmentCursor {
 public:
  explicit SegmentCursor(const CurveView& v) : v_(v) {}

  [[nodiscard]] std::size_t index(Time q) {
    while (base_ + 1 < v_.n && v_.t[base_ + 1] <= q) ++base_;
    while (base_ > 0 && v_.t[base_] > q) --base_;
    std::size_t i = base_;
    if (i + 1 < v_.n && time_eq(q, v_.t[i + 1])) ++i;
    return i;
  }

 private:
  CurveView v_;
  std::size_t base_ = 0;
};

/// f(q), right-continuous, given any callable returning segment_index(q).
/// Branch ladder identical to the legacy PwlCurve::eval.
template <typename Seg>
[[nodiscard]] inline double flat_eval_with(const CurveView& v, Time q,
                                           Seg&& seg) {
  if (q <= 0.0) return v.r[0];
  if (time_ge(q, v.t[v.n - 1])) return v.r[v.n - 1];
  const std::size_t i = seg(q);
  if (time_eq(q, v.t[i])) return v.r[i];
  const double frac = (q - v.t[i]) / (v.t[i + 1] - v.t[i]);
  return v.r[i] + frac * (v.l[i + 1] - v.r[i]);
}

/// lim_{s -> q-} f(s); branch ladder identical to the legacy eval_left.
template <typename Seg>
[[nodiscard]] inline double flat_eval_left_with(const CurveView& v, Time q,
                                                Seg&& seg) {
  if (q <= 0.0 || time_eq(q, 0.0)) return v.r[0];
  if (time_gt(q, v.t[v.n - 1])) return v.r[v.n - 1];
  const std::size_t i = seg(q);
  if (time_eq(q, v.t[i])) return v.l[i];
  const double frac = (q - v.t[i]) / (v.t[i + 1] - v.t[i]);
  return v.r[i] + frac * (v.l[i + 1] - v.r[i]);
}

[[nodiscard]] inline double flat_eval(const CurveView& v, Time q) {
  return flat_eval_with(v, q,
                        [&](Time x) { return flat_segment_index(v, x); });
}

[[nodiscard]] inline double flat_eval_left(const CurveView& v, Time q) {
  return flat_eval_left_with(
      v, q, [&](Time x) { return flat_segment_index(v, x); });
}

[[nodiscard]] inline double flat_eval(const CurveView& v, Time q,
                                      SegmentCursor& cur) {
  return flat_eval_with(v, q, [&](Time x) { return cur.index(x); });
}

/// flat_eval_left and flat_eval at the same q, sharing one cursor lookup;
/// the results are those of the two separate calls.
inline void flat_eval_both(const CurveView& v, Time q, SegmentCursor& cur,
                           double& left, double& right) {
  std::size_t i = 0;
  bool looked_up = false;  // the index is looked up on first use only
  const auto seg = [&](Time x) {
    if (!looked_up) {
      i = cur.index(x);
      looked_up = true;
    }
    return i;
  };
  left = flat_eval_left_with(v, q, seg);
  right = flat_eval_with(v, q, seg);
}

/// flat_eval_both at every instant of the nondecreasing array q[0..m):
/// calls emit(k, left, right) for k = 0, 1, ..., m - 1 in order, with the
/// values of flat_eval_both(v, q[k], ...) bit for bit, for any view laid out
/// as CurveArena::finalize leaves it (t_0 = 0, strictly increasing, no two
/// neighbouring knots time_eq). Each instant falls in one of three classes:
///
///   * strictly inside segment i (above t_i and below t_{i+1}, time_eq to
///     neither): the segment's interpolation, found by plain comparisons
///     with O(1) time_eq calls per segment;
///   * bitwise equal to an interior knot t_i (1 <= i <= n - 2): (l[i], r[i])
///     directly. That is the ladder's answer: the cursor lands on i, q is
///     time_eq to t_i, and since no neighbours are time_eq, q is time_eq
///     neither to 0 nor to t_{n-1};
///   * everything else -- q <= 0, t_0, t_{n-1}, near (time_eq to but not
///     equal to) a knot, or past the last knot: the tolerant ladder.
///
/// So any sorted array works, whether or not it holds the curve's knots.
template <typename Emit>
void flat_eval_sweep(const CurveView& v, const Time* q, std::size_t m,
                     Emit&& emit) {
  SegmentCursor cur(v);
  const auto ladder = [&](std::size_t k) {
    double left = 0.0;
    double right = 0.0;
    flat_eval_both(v, q[k], cur, left, right);
    emit(k, left, right);
  };
  std::size_t k = 0;
  for (std::size_t i = 0; i + 1 < v.n && k < m; ++i) {
    const Time t0 = v.t[i];
    const Time t1 = v.t[i + 1];
    assert(!time_eq_ordered(t0, t1));
    std::size_t end = k;  // [k, end): the instants below t1
    while (end < m && q[end] < t1) ++end;
    // time_eq to t0 holds on a prefix of these instants and time_eq to t1
    // on a suffix, since |q - t| grows (shrinks) with q faster than the
    // tolerance does. Every instant here past the ones <= 0 is >= t0 (the
    // earlier segments took those below it) and below t1, so both scans
    // compare operands in order.
    std::size_t lo = k;
    while (lo < end && (q[lo] <= 0.0 || time_eq_ordered(t0, q[lo]))) ++lo;
    std::size_t hi = end;
    while (hi > lo && time_eq_ordered(q[hi - 1], t1)) --hi;
    for (; k < lo; ++k) {
      // rta-lint: allow(float-eq) the exact-knot class is bitwise q == t_i
      if (i > 0 && q[k] == t0) {
        emit(k, v.l[i], v.r[i]);  // exactly on interior knot i
      } else {
        ladder(k);
      }
    }
    for (; k < hi; ++k) {
      const double frac = (q[k] - t0) / (t1 - t0);
      const double value = v.r[i] + frac * (v.l[i + 1] - v.r[i]);
      emit(k, value, value);
    }
    for (; k < end; ++k) ladder(k);
  }
  for (; k < m; ++k) ladder(k);
}

/// Reusable SoA builder for curve results. See the file comment for the
/// leaf-only usage discipline.
class CurveArena {
 public:
  void clear() {
    t_.clear();
    l_.clear();
    r_.clear();
  }

  void reserve(std::size_t n) {
    t_.reserve(n);
    l_.reserve(n);
    r_.reserve(n);
  }

  [[nodiscard]] std::size_t size() const { return t_.size(); }
  [[nodiscard]] bool empty() const { return t_.empty(); }

  void push(Time t, double left, double right) {
    t_.push_back(t);
    l_.push_back(left);
    r_.push_back(right);
  }

  [[nodiscard]] Time back_t() const { return t_.back(); }
  void set_back_right(double v) { r_.back() = v; }

  /// Canonicalize (anchor, merge, slim, pin) and copy into a tight
  /// CurveData; the arena is left cleared. Bit-identical to constructing a
  /// PwlCurve from the equivalent knot vector.
  [[nodiscard]] std::shared_ptr<const CurveData> finalize();

 private:
  std::vector<double> t_, l_, r_;
};

/// Thread-local scratch arena for kernel results (leaf-only use).
[[nodiscard]] CurveArena& tls_curve_arena();

/// Thread-local scratch grid for kernel candidate abscissae.
[[nodiscard]] std::vector<Time>& tls_grid_scratch();

}  // namespace rta
