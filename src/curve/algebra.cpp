#include "curve/algebra.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "curve/curve_arena.hpp"
#include "curve/kernel_hooks.hpp"

namespace rta {

namespace {

// The pointwise kernels walk the flat knot arrays directly: grids come from
// a linear merge of the contiguous time arrays, evaluations from monotone
// SegmentCursors, and results are assembled in the thread-local CurveArena
// (one canonicalization pass, no per-curve vector<Knot> churn). Values and
// grid contents match the legacy knot-walking implementation bit for bit
// (tests/test_curve_kernels.cpp).

/// Sorted union of the knot abscissae of two curves (tolerance-deduplicated)
/// by linear merge of the already-sorted time arrays.
void merged_grid(const CurveView& a, const CurveView& b,
                 std::vector<Time>& out) {
  out.clear();
  out.reserve(a.n + b.n);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.n || j < b.n) {
    Time t = 0.0;
    if (j >= b.n || (i < a.n && a.t[i] <= b.t[j])) {
      t = a.t[i++];
    } else {
      t = b.t[j++];
    }
    if (out.empty() || !time_eq(out.back(), t)) out.push_back(t);
  }
}

/// Per-thread scratch of the n-ary sum kernel: operand views, the running
/// left-limit and right-value sums per grid point, and the K-way merge heap.
struct SumScratch {
  std::vector<CurveView> views;
  std::vector<double> left;
  std::vector<double> right;
  std::vector<std::pair<Time, std::size_t>> heap;  // (next abscissa, operand)
  std::vector<std::size_t> next;
};

SumScratch& tls_sum_scratch() {
  thread_local SumScratch scratch;
  return scratch;
}

/// Sorted union of the knot abscissae of any number of curves, deduplicated
/// with time_eq exactly as the two-operand merged_grid, by a K-way heap
/// merge of the already-sorted time arrays.
void merged_grid(const std::vector<CurveView>& views, SumScratch& scratch,
                 std::vector<Time>& out) {
  auto& heap = scratch.heap;
  auto& next = scratch.next;
  const auto later = std::greater<std::pair<Time, std::size_t>>();
  out.clear();
  heap.clear();
  next.assign(views.size(), 0);
  std::size_t total = 0;
  for (std::size_t k = 0; k < views.size(); ++k) {
    total += views[k].n;
    heap.emplace_back(views[k].t[0], k);
  }
  out.reserve(total);
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [t, k] = heap.back();
    heap.pop_back();
    if (out.empty() || !time_eq(out.back(), t)) out.push_back(t);
    if (++next[k] < views[k].n) {
      heap.emplace_back(views[k].t[next[k]], k);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

/// Insert the crossing instants of (a - b) into the grid so that pointwise
/// min/max stay piecewise linear between consecutive grid points.
void insert_crossings(const CurveView& a, const CurveView& b,
                      std::vector<Time>& grid) {
  std::vector<Time> crossings;
  SegmentCursor ar(a);
  SegmentCursor br(b);
  SegmentCursor al(a);
  SegmentCursor bl(b);
  for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
    const Time u = grid[i];
    const Time v = grid[i + 1];
    const double du = flat_eval(a, u, ar) - flat_eval(b, u, br);  // right
    const double dv =
        flat_eval_left(a, v, al) - flat_eval_left(b, v, bl);  // left
    if ((du > kValueEps && dv < -kValueEps) ||
        (du < -kValueEps && dv > kValueEps)) {
      const Time tc = u + (v - u) * (du / (du - dv));
      if (time_lt(u, tc) && time_lt(tc, v)) crossings.push_back(tc);
    }
  }
  if (crossings.empty()) return;
  grid.insert(grid.end(), crossings.begin(), crossings.end());
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end(),
                         [](Time x, Time y) { return time_eq(x, y); }),
             grid.end());
}

/// curve_first_crossing's knot scan, started at knot `from` and leaving
/// `from` at the knot (or segment start) where level y is first reached.
/// Every knot and segment before `from` must stay below y; that holds when
/// `from` comes from a scan for a lower level, which is what lets
/// curve_crossing_counts resume instead of rescanning from t = 0.
Time first_crossing_from(const CurveView& v, double y, std::size_t& from) {
  for (std::size_t& i = from; i < v.n; ++i) {
    // At the knot itself (right-continuous value).
    if (v.r[i] >= y - kValueEps) return v.t[i];
    if (i + 1 >= v.n) break;
    // Within the open segment towards the next knot's left limit.
    const double v0 = v.r[i];
    const double v1 = v.l[i + 1];
    if (v1 >= y - kValueEps && v1 > v0 + kValueEps) {
      const double frac = (y - v0) / (v1 - v0);
      return v.t[i] + std::clamp(frac, 0.0, 1.0) * (v.t[i + 1] - v.t[i]);
    }
  }
  return kTimeInfinity;
}

void report_pointwise(std::size_t result_knots) {
  if (curve::KernelHooks* hooks = curve::kernel_hooks()) {
    hooks->on_pointwise(result_knots);
  }
}

template <typename Op>
PwlCurve combine(const PwlCurve& a, const PwlCurve& b, Op op,
                 bool needs_crossings) {
  assert(time_eq(a.horizon(), b.horizon()));
  const CurveView av = a.view();
  const CurveView bv = b.view();
  std::vector<Time>& grid = tls_grid_scratch();
  merged_grid(av, bv, grid);
  if (needs_crossings) insert_crossings(av, bv, grid);
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(grid.size());
  SegmentCursor al(av);
  SegmentCursor ar(av);
  SegmentCursor bl(bv);
  SegmentCursor br(bv);
  for (Time t : grid) {
    const double left = op(flat_eval_left(av, t, al), flat_eval_left(bv, t, bl));
    const double right = op(flat_eval(av, t, ar), flat_eval(bv, t, br));
    arena.push(t, left, right);
  }
  PwlCurve result(arena.finalize());
  report_pointwise(result.knot_count());
  return result;
}

/// The one n-ary pointwise pass behind curve_sum and curve_available:
/// finish(base(t), sum_k terms[k](t)) on the merged grid of base (if any)
/// and the terms, for left limits and right values alike. The terms are
/// accumulated operand by operand over the whole grid, so each grid point
/// sums them in input order: the arithmetic of a left fold of curve_add,
/// without the fold's canonicalized intermediates (and their interpolation
/// rounding). One finalize, one report.
template <typename Finish>
PwlCurve sum_pass(const PwlCurve* base, const std::vector<PwlCurve>& terms,
                  Finish finish) {
  SumScratch& scratch = tls_sum_scratch();
  std::vector<CurveView>& views = scratch.views;
  views.clear();
  if (base != nullptr) views.push_back(base->view());
  for (const PwlCurve& c : terms) {
    assert(views.empty() || time_eq(c.horizon(), views[0].t[views[0].n - 1]));
    views.push_back(c.view());
  }
  assert(!views.empty());
  std::vector<Time>& grid = tls_grid_scratch();
  merged_grid(views, scratch, grid);
  std::vector<double>& left = scratch.left;
  std::vector<double>& right = scratch.right;
  left.assign(grid.size(), 0.0);
  right.assign(grid.size(), 0.0);
  for (const PwlCurve& c : terms) {
    const CurveView v = c.view();
    SegmentCursor cur(v);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      double l = 0.0;
      double r = 0.0;
      flat_eval_both(v, grid[i], cur, l, r);
      left[i] += l;
      right[i] += r;
    }
  }
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(grid.size());
  SegmentCursor base_cur(views[0]);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (base != nullptr) {
      double l = 0.0;
      double r = 0.0;
      flat_eval_both(views[0], grid[i], base_cur, l, r);
      left[i] = finish(l, left[i]);
      right[i] = finish(r, right[i]);
    }
    arena.push(grid[i], left[i], right[i]);
  }
  PwlCurve result(arena.finalize());
  report_pointwise(result.knot_count());
  return result;
}

}  // namespace

PwlCurve curve_add(const PwlCurve& a, const PwlCurve& b) {
  return combine(a, b, [](double x, double y) { return x + y; }, false);
}

PwlCurve curve_sub(const PwlCurve& a, const PwlCurve& b) {
  return combine(a, b, [](double x, double y) { return x - y; }, false);
}

PwlCurve curve_min(const PwlCurve& a, const PwlCurve& b) {
  return combine(a, b, [](double x, double y) { return std::min(x, y); },
                 true);
}

PwlCurve curve_max(const PwlCurve& a, const PwlCurve& b) {
  return combine(a, b, [](double x, double y) { return std::max(x, y); },
                 true);
}

PwlCurve curve_scale(const PwlCurve& a, double factor) {
  const CurveView v = a.view();
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(v.n);
  for (std::size_t i = 0; i < v.n; ++i) {
    arena.push(v.t[i], v.l[i] * factor, v.r[i] * factor);
  }
  return PwlCurve(arena.finalize());
}

PwlCurve curve_add_constant(const PwlCurve& a, double value) {
  const CurveView v = a.view();
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(v.n);
  for (std::size_t i = 0; i < v.n; ++i) {
    arena.push(v.t[i], v.l[i] + value, v.r[i] + value);
  }
  return PwlCurve(arena.finalize());
}

PwlCurve curve_clamp_min(const PwlCurve& a, double floor_value) {
  return curve_max(a, PwlCurve::constant(a.horizon(), floor_value));
}

PwlCurve curve_shift_right(const PwlCurve& a, Time dt) {
  assert(dt >= 0.0);
  if (time_eq(dt, 0.0)) return a;  // O(1): shares storage
  const Time horizon = a.horizon();
  const double v0 = a.eval(0.0);
  const CurveView v = a.view();
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(v.n + 2);
  arena.push(0.0, v0, v0);
  if (time_lt(dt, horizon)) {
    // a's value at 0 holds on [0, dt); at dt the shifted curve starts.
    arena.push(dt, v0, v0);
    for (std::size_t i = 0; i < v.n; ++i) {
      const Time t = v.t[i] + dt;
      if (time_ge(t, horizon)) {
        arena.push(horizon, a.eval_left(horizon - dt), a.eval(horizon - dt));
        break;
      }
      arena.push(t, v.l[i], v.r[i]);
    }
    if (!time_ge(v.t[v.n - 1] + dt, horizon)) {
      arena.push(horizon, a.end_value(), a.end_value());
    }
  } else {
    arena.push(horizon, v0, v0);
  }
  return PwlCurve(arena.finalize());
}

PwlCurve curve_running_max(const PwlCurve& a) {
  const CurveView v = a.view();
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(v.n * 2);
  double cur = v.r[0];
  arena.push(0.0, cur, cur);
  for (std::size_t i = 0; i + 1 < v.n; ++i) {
    const Time t0 = v.t[i];
    const Time t1 = v.t[i + 1];
    const double v0 = v.r[i];
    const double v1 = v.l[i + 1];
    // Segment from (t0, v0) to (t1, v1).
    if (v1 > cur + kValueEps) {
      if (v0 < cur - kValueEps) {
        // Flat until the segment rises through the current max.
        const Time tc = t0 + (t1 - t0) * ((cur - v0) / (v1 - v0));
        arena.push(tc, cur, cur);
      }
      cur = v1;
    }
    // Value of M just before the jump at t1 equals cur (already >= v1).
    const double before = cur;
    cur = std::max(cur, v.r[i + 1]);
    arena.push(t1, before, cur);
  }
  return PwlCurve(arena.finalize());
}

PwlCurve curve_sum(const std::vector<PwlCurve>& curves, Time horizon) {
  if (curves.size() > 1) {
    return sum_pass(nullptr, curves, [](double, double sum) { return sum; });
  }
  PwlCurve result = curves.empty() ? PwlCurve::zero(horizon) : curves[0];
  report_pointwise(result.knot_count());
  return result;
}

PwlCurve curve_available(const PwlCurve& base,
                         const std::vector<PwlCurve>& consumed,
                         double offset) {
  return sum_pass(&base, consumed, [offset](double b, double sum) {
    return b - sum + offset;
  });
}

Time curve_first_crossing(const PwlCurve& a, double y) {
  std::size_t from = 0;
  return first_crossing_from(a.view(), y, from);
}

PwlCurve curve_crossing_counts(const PwlCurve& a, double tau) {
  assert(tau > 0.0);
  const CurveView v = a.view();
  std::vector<Time> jumps;
  std::size_t from = 0;
  for (long long k = 1;; ++k) {
    const Time t = first_crossing_from(v, static_cast<double>(k) * tau, from);
    if (std::isinf(t)) break;
    jumps.push_back(t);
  }
  // First crossings of increasing levels are nondecreasing in time for any
  // curve, so `jumps` is sorted as PwlCurve::step requires.
  return PwlCurve::step(a.horizon(), jumps);
}

PwlCurve curve_floor_div(const PwlCurve& s, double tau) {
  assert(tau > 0.0);
  assert(s.is_nondecreasing());
  const long long total = std::max<long long>(
      0, tolerant_floor(s.end_value() / tau));
  std::vector<Time> jumps;
  jumps.reserve(static_cast<std::size_t>(total));
  for (long long k = 1; k <= total; ++k) {
    const Time t = s.pseudo_inverse(static_cast<double>(k) * tau);
    assert(!std::isinf(t));
    jumps.push_back(t);
  }
  return PwlCurve::step(s.horizon(), jumps);
}

PwlCurve curve_prefix_min_steps(Time horizon, const std::vector<Time>& times,
                                const std::vector<double>& values) {
  assert(!times.empty() && times.size() == values.size());
  assert(time_eq(times.front(), 0.0));
  assert(std::is_sorted(times.begin(), times.end()));
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  double level = values.front();
  arena.push(0.0, level, level);
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (time_gt(times[i], horizon)) break;
    if (!(values[i] < level)) continue;
    if (time_eq(arena.back_t(), times[i])) {
      arena.set_back_right(values[i]);
    } else {
      arena.push(times[i], level, values[i]);
    }
    level = values[i];
  }
  if (!time_eq(arena.back_t(), horizon)) arena.push(horizon, level, level);
  PwlCurve result(arena.finalize());
  report_pointwise(result.knot_count());
  return result;
}

HingeEnvelope::HingeEnvelope(std::vector<Hinge> hinges) {
  assert(!hinges.empty());
  std::sort(hinges.begin(), hinges.end(),
            [](const Hinge& x, const Hinge& y) { return x.knee < y.knee; });
  const std::size_t n = hinges.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Left of knee j, hinges j..n-1 are still flat and hinges 0..j-1 rise
  // with slope 1, so there g(q) = min(flat[j], q + rise) with
  // flat[j] = min base over j..n-1 and rise = min (base - knee) over 0..j-1.
  std::vector<double> flat(n + 1, kInf);
  for (std::size_t j = n; j-- > 0;) {
    flat[j] = std::min(flat[j + 1], hinges[j].base);
  }
  // Candidate breakpoints arrive in increasing q; g is linear with slope 0
  // or 1 between consecutive candidates. Keep only those where the slope
  // changes (flat before the first, slope 1 after the last).
  const auto rising = [&](std::size_t i) {  // slope of segment i -> i + 1
    return v_[i + 1] - v_[i] > 0.5 * (q_[i + 1] - q_[i]);
  };
  const auto push = [&](double q, double v) {
    if (!q_.empty() && !(q > q_.back())) return;  // tied knees: same point
    q_.push_back(q);
    v_.push_back(v);
    const std::size_t m = q_.size();
    if (m < 2) return;
    const bool before = m >= 3 && rising(m - 3);
    const bool corner = rising(m - 2) ? !before : before;
    if (!corner) {
      q_.erase(q_.end() - 2);
      v_.erase(v_.end() - 2);
    }
  };
  double rise = kInf;
  for (std::size_t j = 0; j < n; ++j) {
    const double knee = hinges[j].knee;
    if (j > 0) {
      // Between knees j-1 and j the rising part meets the flat part once.
      const double meet = flat[j] - rise;
      if (meet > hinges[j - 1].knee && meet < knee) push(meet, flat[j]);
    }
    push(knee, std::min(flat[j], knee + rise));
    rise = std::min(rise, hinges[j].base - knee);
  }
  if (q_.size() >= 2 && rising(q_.size() - 2)) {
    q_.pop_back();
    v_.pop_back();
  }
  report_pointwise(q_.size());
}

double HingeEnvelope::operator()(double q) const {
  if (q <= q_.front()) return v_.front();
  if (q >= q_.back()) return v_.back() + (q - q_.back());
  const std::size_t j = static_cast<std::size_t>(
      std::upper_bound(q_.begin(), q_.end(), q) - q_.begin() - 1);
  assert(j + 1 < q_.size());
  return v_[j] + (q - q_[j]) * ((v_[j + 1] - v_[j]) / (q_[j + 1] - q_[j]));
}

PwlCurve curve_compose(const HingeEnvelope& g, const PwlCurve& a) {
  const CurveView v = a.view();
  const std::vector<double>& kq = g.breakpoints();
  const std::vector<double>& kv = g.values();
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(v.n);
  for (std::size_t i = 0; i < v.n; ++i) {
    arena.push(v.t[i], g(v.l[i]), g(v.r[i]));
    if (i + 1 >= v.n) break;
    // Segment i runs linearly from a(t_i) to a(t_{i+1}^-); g o a gains a
    // knot wherever it passes a breakpoint of g, in the order it passes.
    const Time ta = v.t[i];
    const Time tb = v.t[i + 1];
    const double qa = v.r[i];
    const double qb = v.l[i + 1];
    const double lo_q = std::min(qa, qb);
    const double hi_q = std::max(qa, qb);
    const std::size_t lo = static_cast<std::size_t>(
        std::upper_bound(kq.begin(), kq.end(), lo_q) - kq.begin());
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(kq.begin(), kq.end(), hi_q) - kq.begin());
    const bool up = qa < qb;
    for (std::size_t k = 0; lo + k < hi; ++k) {
      const std::size_t j = up ? lo + k : hi - 1 - k;
      const Time t = ta + (tb - ta) * ((kq[j] - qa) / (qb - qa));
      arena.push(std::clamp(t, arena.back_t(), tb), kv[j], kv[j]);
    }
  }
  PwlCurve result(arena.finalize());
  report_pointwise(result.knot_count());
  return result;
}

}  // namespace rta
