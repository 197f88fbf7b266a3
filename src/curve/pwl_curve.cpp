#include "curve/pwl_curve.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "curve/kernel_hooks.hpp"

namespace rta {

PwlCurve::PwlCurve(std::vector<Knot> knots) {
  assert(!knots.empty());
  if (knots.empty()) {
    data_ = CurveData::zero_knot();
    return;
  }
  // The arena's finalize() is the (single, shared) canonicalization
  // pipeline: anchor at t = 0, merge time_eq abscissae, drop collinear
  // continuous interior knots, pin the first left limit.
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(knots.size());
  for (const Knot& k : knots) arena.push(k.t, k.left, k.right);
  data_ = arena.finalize();
}

std::vector<Knot> PwlCurve::knots() const {
  const CurveView v = view();
  std::vector<Knot> out;
  out.reserve(v.n);
  for (std::size_t i = 0; i < v.n; ++i) {
    out.push_back({v.t[i], v.l[i], v.r[i]});
  }
  return out;
}

PwlCurve PwlCurve::zero(Time horizon) { return constant(horizon, 0.0); }

PwlCurve PwlCurve::constant(Time horizon, double value) {
  assert(horizon > 0.0);
  return PwlCurve({{0.0, value, value}, {horizon, value, value}});
}

PwlCurve PwlCurve::identity(Time horizon) { return line(horizon, 1.0); }

PwlCurve PwlCurve::line(Time horizon, double slope) {
  assert(horizon > 0.0);
  return PwlCurve({{0.0, 0.0, 0.0}, {horizon, slope * horizon, slope * horizon}});
}

PwlCurve PwlCurve::step(Time horizon, const std::vector<Time>& jump_times,
                        double step_height) {
  assert(horizon > 0.0);
  assert(std::is_sorted(jump_times.begin(), jump_times.end()));
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(jump_times.size() + 2);
  arena.push(0.0, 0.0, 0.0);
  double level = 0.0;
  for (Time t : jump_times) {
    if (time_gt(t, horizon)) break;
    const Time tt = std::max<Time>(t, 0.0);
    if (time_eq(arena.back_t(), tt)) {
      level += step_height;
      arena.set_back_right(level);
    } else {
      const double before = level;
      level += step_height;
      arena.push(tt, before, level);
    }
  }
  if (!time_eq(arena.back_t(), horizon)) {
    arena.push(horizon, level, level);
  }
  return PwlCurve(arena.finalize());
}

namespace {

/// Def. 5 at level y, given i = the first knot whose right value reaches y
/// (within kValueEps), for a y strictly between the first and the end
/// value's tolerance bands: the crossing is on the segment into knot i or in
/// the jump at knot i. Shared by pseudo_inverse and PinvSweep, so both
/// answer bit for bit alike.
Time crossing_on_segment(const CurveView& v, double y, std::size_t i) {
  if (i >= v.n) {
    // Only reachable for y inside the epsilon band just above the final
    // value (the y > back + eps case returned earlier): per Def. 5 no time
    // within the horizon reaches y, so min{s : f(s) >= y} is unbounded.
    return kTimeInfinity;
  }
  if (i == 0) return 0.0;
  const double a_t = v.t[i - 1];
  const double a_right = v.r[i - 1];
  const double b_t = v.t[i];
  const double b_left = v.l[i];
  if (y <= b_left + kValueEps) {
    // Crossing within the open segment (or exactly at its left endpoint).
    const double rise = b_left - a_right;
    if (rise <= kValueEps) return b_t;  // flat segment: first >= y at b_t
    const double frac = (y - a_right) / rise;
    return a_t + std::clamp(frac, 0.0, 1.0) * (b_t - a_t);
  }
  // y lies inside the jump at b: the first instant with f >= y is b_t.
  return b_t;
}

/// The right value at a knot has not reached level y yet.
bool below_level(double right, double y) { return right < y - kValueEps; }

}  // namespace

Time PwlCurve::pseudo_inverse(double y) const {
  assert(is_nondecreasing());
  if (curve::KernelHooks* hooks = curve::kernel_hooks()) hooks->on_pinv();
  const CurveView v = view();
  if (y <= v.r[0] + kValueEps) return 0.0;
  if (y > v.r[v.n - 1] + kValueEps) return kTimeInfinity;
  // The right values of a nondecreasing curve are sorted, so the first knot
  // whose right value reaches y is a plain lower_bound over the contiguous
  // rights array.
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(v.r, v.r + v.n, y, below_level) - v.r);
  return crossing_on_segment(v, y, i);
}

PinvSweep::PinvSweep(const PwlCurve& curve) : v_(curve.view()) {
  assert(curve.is_nondecreasing());
}

Time PinvSweep::next(double y) {
  if (curve::KernelHooks* hooks = curve::kernel_hooks()) hooks->on_pinv();
  if (y <= v_.r[0] + kValueEps) return 0.0;
  if (y > v_.r[v_.n - 1] + kValueEps) return kTimeInfinity;
  // The lower_bound of pseudo_inverse, found by local steps: every knot
  // before i_ is below y, and i_ is not (or is the end).
  while (i_ < v_.n && below_level(v_.r[i_], y)) ++i_;
  while (i_ > 0 && !below_level(v_.r[i_ - 1], y)) --i_;
  return crossing_on_segment(v_, y, i_);
}

bool PwlCurve::is_nondecreasing() const {
  const CurveView v = view();
  for (std::size_t i = 0; i < v.n; ++i) {
    if (v.l[i] > v.r[i] + kValueEps) return false;
    if (i + 1 < v.n && v.r[i] > v.l[i + 1] + kValueEps) return false;
  }
  return true;
}

bool PwlCurve::is_continuous() const {
  const CurveView v = view();
  for (std::size_t i = 1; i < v.n; ++i) {
    if (std::fabs(v.r[i] - v.l[i]) > kValueEps) return false;
  }
  return true;
}

bool PwlCurve::approx_equal(const PwlCurve& other, double tol) const {
  return max_abs_difference(other) <= tol;
}

double PwlCurve::max_abs_difference(const PwlCurve& other) const {
  double worst = 0.0;
  auto probe = [&](const PwlCurve& grid) {
    const CurveView v = grid.view();
    for (std::size_t i = 0; i < v.n; ++i) {
      const Time t = v.t[i];
      worst = std::max(worst, std::fabs(eval(t) - other.eval(t)));
      worst = std::max(worst, std::fabs(eval_left(t) - other.eval_left(t)));
    }
  };
  probe(*this);
  probe(other);
  return worst;
}

std::string PwlCurve::to_string() const {
  const CurveView v = view();
  std::ostringstream ss;
  ss << "PwlCurve[";
  for (std::size_t i = 0; i < v.n; ++i) {
    if (i) ss << ", ";
    ss << "(" << v.t[i] << ": " << v.l[i] << "/" << v.r[i] << ")";
  }
  ss << "]";
  return ss.str();
}

bool PwlCurve::check_invariants() const {
  const CurveView v = view();
  if (v.n == 0) return false;
  if (!time_eq(v.t[0], 0.0)) return false;
  for (std::size_t i = 1; i < v.n; ++i) {
    if (v.t[i] <= v.t[i - 1]) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const PwlCurve& c) {
  return os << c.to_string();
}

}  // namespace rta
