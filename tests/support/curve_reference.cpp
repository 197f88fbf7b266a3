// Verbatim transplants of the pre-SoA curve kernels (see
// curve_reference.hpp).
// Structure, tolerance decisions and accumulation order are intentionally
// unchanged from the historical implementations; only the obs counters were
// dropped (the oracle must not perturb kernel telemetry).
#include "support/curve_reference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "curve/curve_arena.hpp"

namespace rta::legacyref {

namespace {

/// Merge knots whose abscissae coincide within tolerance: keep the first
/// left limit and the last right value (jumps compose).
std::vector<Knot> normalize_knots(std::vector<Knot> knots) {
  assert(!knots.empty());
  std::vector<Knot> out;
  out.reserve(knots.size());
  for (const Knot& k : knots) {
    if (!out.empty() && time_eq(out.back().t, k.t)) {
      out.back().right = k.right;
    } else {
      assert(out.empty() || k.t > out.back().t);
      out.push_back(k);
    }
  }
  // Drop interior knots that are collinear and continuous: knot i is
  // redundant if left == right and it lies on the segment between its
  // neighbours.
  if (out.size() > 2) {
    std::vector<Knot> slim;
    slim.reserve(out.size());
    slim.push_back(out.front());
    for (std::size_t i = 1; i + 1 < out.size(); ++i) {
      const Knot& prev = slim.back();
      const Knot& cur = out[i];
      const Knot& next = out[i + 1];
      if (std::fabs(cur.left - cur.right) <= kValueEps) {
        const double span = next.t - prev.t;
        const double expect =
            prev.right + (next.left - prev.right) * ((cur.t - prev.t) / span);
        if (std::fabs(cur.right - expect) <= kValueEps) continue;  // redundant
      }
      slim.push_back(cur);
    }
    slim.push_back(out.back());
    out = std::move(slim);
  }
  return out;
}

/// Legacy PwlCurve::segment_index.
std::size_t segment_index(const Curve& knots, Time t) {
  // Last knot with t_i <= t, with tolerance snapping to nearby knots.
  auto it = std::upper_bound(
      knots.begin(), knots.end(), t,
      [](Time value, const Knot& k) { return value < k.t; });
  std::size_t i = (it == knots.begin())
                      ? 0
                      : static_cast<std::size_t>(it - knots.begin() - 1);
  // Snap forward: t epsilon-below knot i+1 counts as being at knot i+1.
  if (i + 1 < knots.size() && time_eq(t, knots[i + 1].t)) ++i;
  return i;
}

/// Legacy merged_grid (algebra.cpp).
std::vector<Time> merged_grid(const Curve& a, const Curve& b) {
  std::vector<Time> grid;
  grid.reserve(a.size() + b.size());
  for (const Knot& k : a) grid.push_back(k.t);
  for (const Knot& k : b) grid.push_back(k.t);
  std::sort(grid.begin(), grid.end());
  std::vector<Time> out;
  out.reserve(grid.size());
  for (Time t : grid) {
    if (out.empty() || !time_eq(out.back(), t)) out.push_back(t);
  }
  return out;
}

/// Legacy insert_crossings (algebra.cpp).
void insert_crossings(const Curve& a, const Curve& b,
                      std::vector<Time>& grid) {
  std::vector<Time> crossings;
  for (std::size_t i = 0; i + 1 < grid.size(); ++i) {
    const Time u = grid[i];
    const Time v = grid[i + 1];
    const double du = eval(a, u) - eval(b, u);            // right values at u
    const double dv = eval_left(a, v) - eval_left(b, v);  // left values at v
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

/// Legacy combine (algebra.cpp).
template <typename Op>
Curve combine(const Curve& a, const Curve& b, Op op, bool needs_crossings) {
  assert(time_eq(horizon(a), horizon(b)));
  std::vector<Time> grid = merged_grid(a, b);
  if (needs_crossings) insert_crossings(a, b, grid);
  std::vector<Knot> knots;
  knots.reserve(grid.size());
  for (Time t : grid) {
    knots.push_back({t, op(eval_left(a, t), eval_left(b, t)),
                     op(eval(a, t), eval(b, t))});
  }
  return make_curve(std::move(knots));
}

}  // namespace

Curve make_curve(std::vector<Knot> knots) {
  assert(!knots.empty());
  if (knots.empty()) return {{0.0, 0.0, 0.0}};
  // Anchor the curve at t = 0.
  if (!time_eq(knots.front().t, 0.0)) {
    assert(knots.front().t > 0.0);
    knots.insert(knots.begin(),
                 Knot{0.0, knots.front().left, knots.front().left});
  } else {
    knots.front().t = 0.0;
  }
  Curve out = normalize_knots(std::move(knots));
  // First knot: the left limit is meaningless; pin it to the value.
  out.front().left = out.front().right;
  return out;
}

Time horizon(const Curve& c) { return c.back().t; }

double end_value(const Curve& c) { return c.back().right; }

double eval(const Curve& c, Time t) {
  if (t <= 0.0) return c.front().right;
  if (time_ge(t, horizon(c))) return c.back().right;
  const std::size_t i = segment_index(c, t);
  const Knot& a = c[i];
  if (time_eq(t, a.t)) return a.right;
  const Knot& b = c[i + 1];
  const double frac = (t - a.t) / (b.t - a.t);
  return a.right + frac * (b.left - a.right);
}

double eval_left(const Curve& c, Time t) {
  if (t <= 0.0 || time_eq(t, 0.0)) return c.front().right;
  if (time_gt(t, horizon(c))) return c.back().right;
  const std::size_t i = segment_index(c, t);
  const Knot& a = c[i];
  if (time_eq(t, a.t)) return a.left;
  const Knot& b = c[i + 1];
  const double frac = (t - a.t) / (b.t - a.t);
  return a.right + frac * (b.left - a.right);
}

Time pseudo_inverse(const Curve& c, double y) {
  if (y <= c.front().right + kValueEps) return 0.0;
  if (y > c.back().right + kValueEps) return kTimeInfinity;
  auto it = std::lower_bound(
      c.begin(), c.end(), y,
      [](const Knot& k, double value) { return k.right < value - kValueEps; });
  if (it == c.end()) return kTimeInfinity;
  const std::size_t i = static_cast<std::size_t>(it - c.begin());
  if (i == 0) return 0.0;
  const Knot& a = c[i - 1];
  const Knot& b = c[i];
  if (y <= b.left + kValueEps) {
    const double rise = b.left - a.right;
    if (rise <= kValueEps) return b.t;  // flat segment: first >= y at b.t
    const double frac = (y - a.right) / rise;
    return a.t + std::clamp(frac, 0.0, 1.0) * (b.t - a.t);
  }
  // y lies inside the jump at b: the first instant with f >= y is b.t.
  return b.t;
}

Curve add(const Curve& a, const Curve& b) {
  return combine(a, b, [](double x, double y) { return x + y; }, false);
}

Curve sub(const Curve& a, const Curve& b) {
  return combine(a, b, [](double x, double y) { return x - y; }, false);
}

Curve min(const Curve& a, const Curve& b) {
  return combine(a, b, [](double x, double y) { return std::min(x, y); },
                 true);
}

Curve max(const Curve& a, const Curve& b) {
  return combine(a, b, [](double x, double y) { return std::max(x, y); },
                 true);
}

Curve scale(const Curve& a, double factor) {
  std::vector<Knot> knots = a;
  for (Knot& k : knots) {
    k.left *= factor;
    k.right *= factor;
  }
  return make_curve(std::move(knots));
}

Curve add_constant(const Curve& a, double value) {
  std::vector<Knot> knots = a;
  for (Knot& k : knots) {
    k.left += value;
    k.right += value;
  }
  return make_curve(std::move(knots));
}

Curve clamp_min(const Curve& a, double floor_value) {
  return max(a, constant(horizon(a), floor_value));
}

Curve shift_right(const Curve& a, Time dt) {
  assert(dt >= 0.0);
  if (time_eq(dt, 0.0)) return a;
  const Time h = horizon(a);
  const double v0 = eval(a, 0.0);
  std::vector<Knot> knots;
  knots.reserve(a.size() + 2);
  knots.push_back({0.0, v0, v0});
  if (time_lt(dt, h)) {
    // a's value at 0 holds on [0, dt); at dt the shifted curve starts.
    knots.push_back({dt, v0, v0});
    for (const Knot& k : a) {
      const Time t = k.t + dt;
      if (time_ge(t, h)) {
        knots.push_back({h, eval_left(a, h - dt), eval(a, h - dt)});
        break;
      }
      knots.push_back({t, k.left, k.right});
    }
    if (!time_ge(a.back().t + dt, h)) {
      knots.push_back({h, end_value(a), end_value(a)});
    }
  } else {
    knots.push_back({h, v0, v0});
  }
  return make_curve(std::move(knots));
}

Curve running_max(const Curve& a) {
  std::vector<Knot> out;
  out.reserve(a.size() * 2);
  double cur = a.front().right;
  out.push_back({0.0, cur, cur});
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    const Time t0 = a[i].t;
    const Time t1 = a[i + 1].t;
    const double v0 = a[i].right;
    const double v1 = a[i + 1].left;
    // Segment from (t0, v0) to (t1, v1).
    if (v1 > cur + kValueEps) {
      if (v0 < cur - kValueEps) {
        // Flat until the segment rises through the current max.
        const Time tc = t0 + (t1 - t0) * ((cur - v0) / (v1 - v0));
        out.push_back({tc, cur, cur});
      }
      cur = v1;
    }
    // Value of M just before the jump at t1 equals cur (already >= v1).
    const double before = cur;
    cur = std::max(cur, a[i + 1].right);
    out.push_back({t1, before, cur});
  }
  return make_curve(std::move(out));
}

Curve service_transform(const Curve& availability, const Curve& workload,
                        Time lag) {
  assert(lag >= 0.0);
  // M(u) = max_{0<=s<=u}( A(s) - c(s^-) ); see transforms.cpp for the
  // semantics discussion. Same operator sequence as the production path.
  Curve m = running_max(sub(availability, workload));
  m = clamp_min(m, 0.0);
  if (lag > 0.0) m = shift_right(m, lag);
  Curve s = sub(availability, m);
  s = clamp_min(s, 0.0);
  if (lag > 0.0 && time_lt(lag, horizon(s))) {
    const double big =
        std::fabs(end_value(s)) + end_value(availability) + 1.0;
    s = min(s, make_curve({{0.0, 0.0, 0.0},
                           {lag, 0.0, big},
                           {horizon(s), big, big}}));
  }
  return s;
}

Curve step(Time horizon, const std::vector<Time>& jump_times,
           double step_height) {
  assert(horizon > 0.0);
  assert(std::is_sorted(jump_times.begin(), jump_times.end()));
  std::vector<Knot> knots;
  knots.reserve(jump_times.size() + 2);
  knots.push_back({0.0, 0.0, 0.0});
  double level = 0.0;
  for (Time t : jump_times) {
    if (time_gt(t, horizon)) break;
    const Time tt = std::max<Time>(t, 0.0);
    if (!knots.empty() && time_eq(knots.back().t, tt)) {
      level += step_height;
      knots.back().right = level;
    } else {
      const double before = level;
      level += step_height;
      knots.push_back({tt, before, level});
    }
  }
  if (!time_eq(knots.back().t, horizon)) {
    knots.push_back({horizon, level, level});
  }
  return make_curve(std::move(knots));
}

Curve constant(Time horizon, double value) {
  assert(horizon > 0.0);
  return make_curve({{0.0, value, value}, {horizon, value, value}});
}

}  // namespace rta::legacyref

namespace rta::ladderref {

namespace {

/// Sorted union of the knot abscissae of two curves (tolerance-deduplicated).
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

/// Sorted union of the knot abscissae of any number of curves, deduplicated
/// like the two-operand merged_grid. A sorted multiset has one order, so
/// sorting the concatenation gives the kernels' k-way merge exactly.
void merged_grid(const std::vector<CurveView>& views, std::vector<Time>& out) {
  std::vector<Time> merged;
  for (const CurveView& v : views) merged.insert(merged.end(), v.t, v.t + v.n);
  std::sort(merged.begin(), merged.end());
  out.clear();
  for (const Time t : merged) {
    if (out.empty() || !time_eq(out.back(), t)) out.push_back(t);
  }
}

bool changes_sign(double du, double dv) {
  return (du > kValueEps && dv < -kValueEps) ||
         (du < -kValueEps && dv > kValueEps);
}

/// Adds the left limits and right values of `v` at each grid point to
/// left[i] and right[i].
void accumulate(const CurveView& v, const std::vector<Time>& grid,
                double* left, double* right) {
  SegmentCursor cur(v);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    double l = 0.0;
    double r = 0.0;
    flat_eval_both(v, grid[i], cur, l, r);
    left[i] += l;
    right[i] += r;
  }
}

template <typename Finish>
PwlCurve sum_pass(const PwlCurve* base, const std::vector<PwlCurve>& terms,
                  Finish finish) {
  std::vector<CurveView> views;
  if (base != nullptr) views.push_back(base->view());
  for (const PwlCurve& c : terms) views.push_back(c.view());
  assert(!views.empty());
  std::vector<Time> grid;
  merged_grid(views, grid);
  std::vector<double> left(grid.size(), 0.0);
  std::vector<double> right(grid.size(), 0.0);
  for (const PwlCurve& c : terms) {
    accumulate(c.view(), grid, left.data(), right.data());
  }
  CurveArena arena;
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
  return PwlCurve(arena.finalize());
}

/// Walks g(a(t)) over `grid` (every knot time of `a`, possibly more):
/// emit(t, left, right) at each grid point and at every instant between
/// grid points where `a` passes a breakpoint of g, in time order.
template <typename Emit>
void compose_walk(const HingeEnvelope& g, const CurveView& a,
                  const std::vector<Time>& grid, Emit&& emit) {
  const std::vector<double>& kq = g.breakpoints();
  const std::vector<double>& kv = g.values();
  const auto upper = [&](double q) {
    return static_cast<std::size_t>(
        std::upper_bound(kq.begin(), kq.end(), q) - kq.begin());
  };
  const auto lower = [&](double q) {
    return static_cast<std::size_t>(
        std::lower_bound(kq.begin(), kq.end(), q) - kq.begin());
  };
  SegmentCursor cur(a);
  double qa = 0.0;  // a at the previous grid point
  Time last = 0.0;  // the last emitted instant
  for (std::size_t i = 0; i < grid.size(); ++i) {
    double ql = 0.0;
    double qr = 0.0;
    flat_eval_both(a, grid[i], cur, ql, qr);
    if (i > 0) {
      const Time ta = grid[i - 1];
      const Time tb = grid[i];
      const double qb = ql;
      const std::size_t lo = upper(std::min(qa, qb));
      const std::size_t hi = lower(std::max(qa, qb));
      const bool up = qa < qb;
      for (std::size_t k = 0; lo + k < hi; ++k) {
        const std::size_t j = up ? lo + k : hi - 1 - k;
        const Time t = ta + (tb - ta) * ((kq[j] - qa) / (qb - qa));
        last = std::clamp(t, last, tb);
        emit(last, kv[j], kv[j]);
      }
    }
    const double gl = g.at(ql, upper(ql));
    emit(grid[i], gl, g.at(qr, upper(qr)));
    last = grid[i];
    qa = qr;
  }
}

}  // namespace

PwlCurve curve_sum(const std::vector<PwlCurve>& curves, Time horizon) {
  if (curves.size() > 1) {
    return sum_pass(nullptr, curves, [](double, double sum) { return sum; });
  }
  return curves.empty() ? PwlCurve::zero(horizon) : curves[0];
}

PwlCurve curve_available(const PwlCurve& base,
                         const std::vector<PwlCurve>& consumed,
                         double offset) {
  return sum_pass(&base, consumed, [offset](double b, double sum) {
    return b - sum + offset;
  });
}

PwlCurve curve_min_of_sums(const std::vector<SumTerm>& terms) {
  assert(!terms.empty());
  std::vector<CurveView> views;
  for (const SumTerm& term : terms) {
    views.push_back(term.a->view());
    if (term.b != nullptr) views.push_back(term.b->view());
  }
  std::vector<Time> grid;
  merged_grid(views, grid);
  const std::size_t n = grid.size();
  const std::size_t count = terms.size();
  std::vector<double> left(count * n, 0.0);
  std::vector<double> right(count * n, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    double* lk = left.data() + k * n;
    double* rk = right.data() + k * n;
    accumulate(terms[k].a->view(), grid, lk, rk);
    if (terms[k].b != nullptr) accumulate(terms[k].b->view(), grid, lk, rk);
    for (std::size_t i = 0; i < n; ++i) {
      lk[i] += terms[k].offset;
      rk[i] += terms[k].offset;
    }
  }
  const auto min_at = [&](const std::vector<double>& values, std::size_t i) {
    double m = values[i];
    for (std::size_t k = 1; k < count; ++k) m = std::min(m, values[k * n + i]);
    return m;
  };
  std::vector<SegmentCursor> cursors(views.begin(), views.end());
  const auto min_between = [&](Time t) {
    double m = std::numeric_limits<double>::infinity();
    std::size_t j = 0;
    for (const SumTerm& term : terms) {
      double sum = flat_eval(views[j], t, cursors[j]);
      ++j;
      if (term.b != nullptr) {
        sum += flat_eval(views[j], t, cursors[j]);
        ++j;
      }
      m = std::min(m, sum + term.offset);
    }
    return m;
  };
  CurveArena arena;
  arena.reserve(n);
  std::vector<Time> crossings;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      const Time u = grid[i - 1];
      const Time v = grid[i];
      crossings.clear();
      for (std::size_t p = 0; p < count; ++p) {
        for (std::size_t q = p + 1; q < count; ++q) {
          const double du = right[p * n + i - 1] - right[q * n + i - 1];
          const double dv = left[p * n + i] - left[q * n + i];
          if (!changes_sign(du, dv)) continue;
          const Time tc = u + (v - u) * (du / (du - dv));
          if (time_lt(u, tc) && time_lt(tc, v)) crossings.push_back(tc);
        }
      }
      std::sort(crossings.begin(), crossings.end());
      for (const Time tc : crossings) {
        const double m = min_between(tc);
        arena.push(tc, m, m);
      }
    }
    arena.push(grid[i], min_at(left, i), min_at(right, i));
  }
  return PwlCurve(arena.finalize());
}

PwlCurve curve_compose(const HingeEnvelope& g, const PwlCurve& a) {
  const CurveView v = a.view();
  const std::vector<Time> grid(v.t, v.t + v.n);
  CurveArena arena;
  arena.reserve(v.n);
  compose_walk(g, v, grid, [&](Time t, double left, double right) {
    arena.push(t, left, right);
  });
  return PwlCurve(arena.finalize());
}

PwlCurve curve_compose_capped_max(const HingeEnvelope& g, const PwlCurve& a,
                                  const PwlCurve& cap) {
  const CurveView av = a.view();
  const CurveView cv = cap.view();
  std::vector<Time> grid;
  merged_grid(av, cv, grid);
  CurveArena arena;
  arena.reserve(grid.size());

  // curve_running_max's scan over the capped knots as they come.
  bool started = false;
  double top = 0.0;   // running max so far
  Time prev_t = 0.0;  // previous capped knot
  double prev_r = 0.0;
  const auto raise = [&](Time t, double left, double right) {
    if (!started) {
      started = true;
      top = right;
      arena.push(t, top, top);
    } else {
      if (left > top + kValueEps) {
        if (prev_r < top - kValueEps) {
          arena.push(prev_t + (t - prev_t) * ((top - prev_r) / (left - prev_r)),
                     top, top);
        }
        top = left;
      }
      const double before = top;
      top = std::max(top, right);
      arena.push(t, before, top);
    }
    prev_t = t;
    prev_r = right;
  };

  // The min with the cap, crossing it at most once between knots of g o a.
  SegmentCursor cap_cur(cv);
  Time last_t = 0.0;
  double last_g = 0.0;    // g o a at last_t
  double last_gap = 0.0;  // g o a - cap at last_t
  bool have_last = false;
  compose_walk(g, av, grid, [&](Time t, double left, double right) {
    double cap_l = 0.0;
    double cap_r = 0.0;
    flat_eval_both(cv, t, cap_cur, cap_l, cap_r);
    if (have_last && changes_sign(last_gap, left - cap_l)) {
      const double dv = left - cap_l;
      const Time tc = last_t + (t - last_t) * (last_gap / (last_gap - dv));
      if (time_lt(last_t, tc) && time_lt(tc, t)) {
        const double m =
            last_g + (left - last_g) * ((tc - last_t) / (t - last_t));
        raise(tc, m, m);
      }
    }
    raise(t, std::min(left, cap_l), std::min(right, cap_r));
    last_t = t;
    last_g = right;
    last_gap = right - cap_r;
    have_last = true;
  });
  return PwlCurve(arena.finalize());
}

}  // namespace rta::ladderref
