#include "curve/algebra.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "curve/curve_arena.hpp"
#include "curve/kernel_hooks.hpp"

namespace rta {

namespace {

// The pointwise kernels walk the flat knot arrays directly: grids come from
// a linear merge of the contiguous time arrays, each operand's values on a
// grid from one flat_eval_sweep, and results are assembled in the
// thread-local CurveArena (one canonicalization pass, no per-curve
// vector<Knot> churn). Values and grid contents match the legacy
// knot-walking implementation bit for bit (tests/test_curve_kernels.cpp).

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
    if (out.empty() || !time_eq_ordered(out.back(), t)) out.push_back(t);
  }
}

/// Per-thread scratch of the grid kernels: operand views, the left limits
/// and right values (or their sums) per grid point, and the merge buffers.
struct SumScratch {
  std::vector<CurveView> views;
  std::vector<double> left;
  std::vector<double> right;
  std::vector<Time> merged;      // sorted abscissae, before deduplication
  std::vector<Time> merging;     // the other half of each merge round
  std::vector<std::size_t> runs;  // start of each sorted run, then the end
  std::vector<std::size_t> next_runs;
  std::vector<Time> crossings;  // crossing instants to insert
};

SumScratch& tls_sum_scratch() {
  thread_local SumScratch scratch;
  return scratch;
}

/// Sorted union of the knot abscissae of any number of curves, deduplicated
/// with time_eq exactly as the two-operand merged_grid: the sorted time
/// arrays are merged pairwise, round by round, and the one sorted sequence
/// is then deduplicated in a single pass.
void merged_grid(const std::vector<CurveView>& views, SumScratch& scratch,
                 std::vector<Time>& out) {
  std::vector<Time>& merged = scratch.merged;
  std::vector<Time>& merging = scratch.merging;
  std::vector<std::size_t>& runs = scratch.runs;
  std::vector<std::size_t>& next_runs = scratch.next_runs;
  merged.clear();
  runs.clear();
  for (const CurveView& v : views) {
    runs.push_back(merged.size());
    merged.insert(merged.end(), v.t, v.t + v.n);
  }
  runs.push_back(merged.size());
  while (runs.size() > 2) {
    merging.resize(merged.size());
    next_runs.clear();
    std::size_t r = 0;
    for (; r + 2 < runs.size(); r += 2) {
      next_runs.push_back(runs[r]);
      std::merge(merged.begin() + static_cast<std::ptrdiff_t>(runs[r]),
                 merged.begin() + static_cast<std::ptrdiff_t>(runs[r + 1]),
                 merged.begin() + static_cast<std::ptrdiff_t>(runs[r + 1]),
                 merged.begin() + static_cast<std::ptrdiff_t>(runs[r + 2]),
                 merging.begin() + static_cast<std::ptrdiff_t>(runs[r]));
    }
    if (r + 1 < runs.size()) {  // an odd run out: carried over as is
      next_runs.push_back(runs[r]);
      std::copy(merged.begin() + static_cast<std::ptrdiff_t>(runs[r]),
                merged.end(),
                merging.begin() + static_cast<std::ptrdiff_t>(runs[r]));
    }
    next_runs.push_back(merged.size());
    merged.swap(merging);
    runs.swap(next_runs);
  }
  out.clear();
  out.reserve(merged.size());
  for (const Time t : merged) {
    if (out.empty() || !time_eq_ordered(out.back(), t)) out.push_back(t);
  }
}

/// The difference of two linear pieces, du at an interval's start and dv at
/// its end, changes sign beyond the value tolerance.
bool changes_sign(double du, double dv) {
  return (du > kValueEps && dv < -kValueEps) ||
         (du < -kValueEps && dv > kValueEps);
}

/// The left limits and right values of `v` at each grid point.
void sample(const CurveView& v, const std::vector<Time>& grid,
            std::vector<double>& left, std::vector<double>& right) {
  left.resize(grid.size());
  right.resize(grid.size());
  flat_eval_sweep(v, grid.data(), grid.size(),
                  [&](std::size_t i, double l, double r) {
                    left[i] = l;
                    right[i] = r;
                  });
}

/// Adds the left limits and right values of `v` at each grid point to
/// left[i] and right[i].
void accumulate(const CurveView& v, const std::vector<Time>& grid,
                double* left, double* right) {
  flat_eval_sweep(v, grid.data(), grid.size(),
                  [&](std::size_t i, double l, double r) {
                    left[i] += l;
                    right[i] += r;
                  });
}

/// curve_first_crossing's knot scan, started at knot `from` and leaving
/// `from` at the knot (or segment start) where level y is first reached.
/// Every knot and segment before `from` must stay below y; that holds when
/// `from` comes from a scan for a lower level, which is what lets
/// crossing_jumps resume instead of rescanning from t = 0.
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

/// op(a, b) on the merged grid of a and b, as one sweep of a into the
/// scratch arrays and one sweep of b that pushes the results. With
/// needs_crossings (min/max), b's sweep also collects the instants where
/// a - b changes sign between consecutive grid points; if there are any,
/// they join the grid and both sweeps run once more on it, so the result
/// is piecewise linear between its knots.
template <typename Op>
PwlCurve combine(const PwlCurve& a, const PwlCurve& b, Op op,
                 bool needs_crossings) {
  assert(time_eq(a.horizon(), b.horizon()));
  const CurveView av = a.view();
  const CurveView bv = b.view();
  std::vector<Time>& grid = tls_grid_scratch();
  merged_grid(av, bv, grid);
  SumScratch& scratch = tls_sum_scratch();
  const std::vector<double>& al = scratch.left;
  const std::vector<double>& ar = scratch.right;
  std::vector<Time>& crossings = scratch.crossings;
  crossings.clear();
  CurveArena& arena = tls_curve_arena();
  const auto pass = [&](bool find_crossings) {
    sample(av, grid, scratch.left, scratch.right);
    arena.clear();
    arena.reserve(grid.size());
    double du = 0.0;  // (a - b) at the previous grid point, right values
    flat_eval_sweep(bv, grid.data(), grid.size(),
                    [&](std::size_t i, double bl, double br) {
                      if (find_crossings) {
                        const double dv = al[i] - bl;  // left values
                        if (i > 0 && changes_sign(du, dv)) {
                          const Time u = grid[i - 1];
                          const Time v = grid[i];
                          const Time tc = u + (v - u) * (du / (du - dv));
                          if (time_lt(u, tc) && time_lt(tc, v)) {
                            crossings.push_back(tc);
                          }
                        }
                        du = ar[i] - br;
                      }
                      arena.push(grid[i], op(al[i], bl), op(ar[i], br));
                    });
  };
  pass(needs_crossings);
  if (!crossings.empty()) {
    grid.insert(grid.end(), crossings.begin(), crossings.end());
    std::sort(grid.begin(), grid.end());
    grid.erase(std::unique(grid.begin(), grid.end(),
                           [](Time x, Time y) {
                             return time_eq_ordered(x, y);
                           }),
               grid.end());
    pass(false);
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
    accumulate(c.view(), grid, left.data(), right.data());
  }
  if (base != nullptr) {
    flat_eval_sweep(views[0], grid.data(), grid.size(),
                    [&](std::size_t i, double l, double r) {
                      left[i] = finish(l, left[i]);
                      right[i] = finish(r, right[i]);
                    });
  }
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    arena.push(grid[i], left[i], right[i]);
  }
  PwlCurve result(arena.finalize());
  report_pointwise(result.knot_count());
  return result;
}

/// std::upper_bound / std::lower_bound over one sorted array, for queries
/// that mostly move a little: each search gallops out from the previous
/// answer, so a query near it costs O(1) and any query O(log n), with the
/// results of the std searches.
class SortedCursor {
 public:
  explicit SortedCursor(const std::vector<double>& a) : a_(a) {}

  std::size_t upper(double q) {
    return seek([q](double x) { return x <= q; });
  }
  std::size_t lower(double q) {
    return seek([q](double x) { return x < q; });
  }

 private:
  /// The first index whose element is not `before` the query.
  template <typename Before>
  std::size_t seek(Before before) {
    const std::size_t n = a_.size();
    const double* a = a_.data();
    std::size_t lo = i_;
    std::size_t hi = i_;
    std::size_t step = 1;
    if (i_ < n && before(a[i_])) {
      // The answer lies right of i_: double the stride until past it.
      lo = i_ + 1;
      hi = lo;
      while (hi < n && before(a[hi])) {
        lo = hi + 1;
        hi = std::min(n, lo + step);
        step *= 2;
      }
    } else {
      // The answer is i_ or left of it.
      while (lo > 0 && !before(a[lo - 1])) {
        hi = lo - 1;
        lo = hi > step ? hi - step : 0;
        step *= 2;
      }
    }
    i_ = static_cast<std::size_t>(std::partition_point(a + lo, a + hi, before) -
                                  a);
    return i_;
  }

  const std::vector<double>& a_;
  std::size_t i_ = 0;
};

/// The grid index compose_walk passes for instants between grid points.
constexpr std::size_t kOffGrid = std::numeric_limits<std::size_t>::max();

/// Walks g(a(t)) over `grid`, which holds every knot time of `a` and
/// possibly more: calls emit(t, left, right, k) at each grid point
/// t = grid[k] and, between grid points, at every instant where `a` passes
/// a breakpoint of g (with k = kOffGrid), in time order. Since g is
/// continuous, each jump of `a` maps to a jump of g o a and each linear
/// piece of `a` to a piecewise-linear run.
template <typename Emit>
void compose_walk(const HingeEnvelope& g, const CurveView& a,
                  const std::vector<Time>& grid, Emit&& emit) {
  const std::vector<double>& kq = g.breakpoints();
  const std::vector<double>& kv = g.values();
  SortedCursor knee(kq);
  double qa = 0.0;  // a at the previous grid point
  Time last = 0.0;  // the last emitted instant
  flat_eval_sweep(a, grid.data(), grid.size(),
                  [&](std::size_t i, double ql, double qr) {
    if (i > 0) {
      // `a` runs linearly from qa at grid[i-1] to ql at grid[i]^-; g o a
      // gains a knot wherever it passes a breakpoint of g, in the order it
      // passes them.
      const Time ta = grid[i - 1];
      const Time tb = grid[i];
      const double qb = ql;
      const double lo_q = std::min(qa, qb);
      const double hi_q = std::max(qa, qb);
      const std::size_t lo = knee.upper(lo_q);
      const std::size_t hi = knee.lower(hi_q);
      const bool up = qa < qb;
      for (std::size_t k = 0; lo + k < hi; ++k) {
        const std::size_t j = up ? lo + k : hi - 1 - k;
        const Time t = ta + (tb - ta) * ((kq[j] - qa) / (qb - qa));
        last = std::clamp(t, last, tb);
        emit(last, kv[j], kv[j], kOffGrid);
      }
    }
    const double gl = g.at(ql, knee.upper(ql));
    emit(grid[i], gl, g.at(qr, knee.upper(qr)), i);
    last = grid[i];
    qa = qr;
  });
}

/// The first instants v(t) >= k*tau for k = 1, 2, ..., in order: the jumps
/// of Lemma 2's crossing-count curve. First crossings of increasing levels
/// are nondecreasing in time for any curve, so `out` is sorted.
void crossing_jumps(const CurveView& v, double tau, std::vector<Time>& out) {
  out.clear();
  std::size_t from = 0;
  for (long long k = 1;; ++k) {
    const Time t = first_crossing_from(v, static_cast<double>(k) * tau, from);
    if (std::isinf(t)) break;
    out.push_back(t);
  }
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

PwlCurve curve_crossing_counts_min_shift(const PwlCurve& s, const PwlCurve& a,
                                         double tau) {
  assert(tau > 0.0);
  assert(time_eq(s.horizon(), a.horizon()));
  const Time horizon = a.horizon();
  std::vector<Time> jumps;
  crossing_jumps(s.view(), tau, jumps);
  // Overwrite the k-th crossing with the k-th jump of the min, for k up to
  // the shorter list; `meet` takes the shifted curve's k-th jump. The
  // running max keeps the list sorted where a time_eq pair took the earlier
  // instant.
  std::size_t k = 0;
  const auto meet = [&](Time shifted, double units) {
    for (long long u = std::llround(units); u > 0 && k < jumps.size(); --u) {
      Time& t = jumps[k];
      t = time_eq(t, shifted) ? std::min(t, shifted) : std::max(t, shifted);
      if (k > 0) t = std::max(t, jumps[k - 1]);
      ++k;
    }
  };
  // The jumps of curve_shift_right(a, tau): a(0) stays at 0; a later jump
  // of `a` moves tau later, and those that land at or past the horizon
  // fold onto it, as many as a(horizon - tau) still counts.
  const CurveView v = a.view();
  const Time dt = time_eq(tau, 0.0) ? 0.0 : tau;
  meet(0.0, v.r[0]);
  if (time_lt(dt, horizon)) {
    double counted = v.r[0];
    for (std::size_t i = 1; i < v.n && time_lt(v.t[i] + dt, horizon); ++i) {
      meet(v.t[i] + dt, v.r[i] - v.l[i]);
      counted = v.r[i];
    }
    meet(horizon, a.eval(horizon - dt) - counted);
  }
  jumps.resize(k);
  return PwlCurve::step(horizon, jumps);
}

PwlCurve curve_floor_div(const PwlCurve& s, double tau) {
  assert(tau > 0.0);
  const long long total = std::max<long long>(
      0, tolerant_floor(s.end_value() / tau));
  std::vector<Time> jumps;
  jumps.reserve(static_cast<std::size_t>(total));
  PinvSweep level_time(s);
  for (long long k = 1; k <= total; ++k) {
    const Time t = level_time.next(static_cast<double>(k) * tau);
    assert(!std::isinf(t));
    jumps.push_back(t);
  }
  return PwlCurve::step(s.horizon(), jumps);
}

PwlCurve curve_min_of_sums(const std::vector<SumTerm>& terms) {
  assert(!terms.empty());
  SumScratch& scratch = tls_sum_scratch();
  std::vector<CurveView>& views = scratch.views;
  views.clear();
  for (const SumTerm& term : terms) {
    views.push_back(term.a->view());
    if (term.b != nullptr) views.push_back(term.b->view());
    assert(time_eq(views.back().t[views.back().n - 1],
                   views[0].t[views[0].n - 1]));
  }
  std::vector<Time>& grid = tls_grid_scratch();
  merged_grid(views, scratch, grid);
  // Term k's left limits and right values at grid point i sit at k * n + i,
  // each summed as (a + b) + offset.
  const std::size_t n = grid.size();
  const std::size_t count = terms.size();
  std::vector<double>& left = scratch.left;
  std::vector<double>& right = scratch.right;
  left.assign(count * n, 0.0);
  right.assign(count * n, 0.0);
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
  // Crossing values are read off the operands themselves, as the chain's
  // curve_min reads its operands: an operand knot the grid merged into a
  // time_eq neighbour still bends the operand where it lies.
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
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(n);
  std::vector<Time>& crossings = scratch.crossings;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      // Every term is linear on (u, v): the min can only turn where two of
      // them cross.
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
  PwlCurve result(arena.finalize());
  report_pointwise(result.knot_count());
  return result;
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
  return at(q, static_cast<std::size_t>(
                   std::upper_bound(q_.begin(), q_.end(), q) - q_.begin()));
}

double HingeEnvelope::at(double q, std::size_t above) const {
  if (q <= q_.front()) return v_.front();
  if (q >= q_.back()) return v_.back() + (q - q_.back());
  const std::size_t j = above - 1;
  assert(j + 1 < q_.size());
  return v_[j] + (q - q_[j]) * ((v_[j + 1] - v_[j]) / (q_[j + 1] - q_[j]));
}

PwlCurve curve_compose_capped_max(const HingeEnvelope& g, const PwlCurve& a,
                                  const PwlCurve& cap) {
  assert(time_eq(a.horizon(), cap.horizon()));
  const CurveView av = a.view();
  const CurveView cv = cap.view();
  std::vector<Time>& grid = tls_grid_scratch();
  merged_grid(av, cv, grid);
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(grid.size());

  // Last stage: curve_running_max's scan over the capped knots as they
  // come, from the segment ending at each knot's left limit.
  bool started = false;
  double top = 0.0;      // running max so far
  Time prev_t = 0.0;     // previous capped knot
  double prev_r = 0.0;
  const auto raise = [&](Time t, double left, double right) {
    if (!started) {
      started = true;
      top = right;
      arena.push(t, top, top);
    } else {
      if (left > top + kValueEps) {
        if (prev_r < top - kValueEps) {
          // Flat until the segment rises through the current max.
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

  // Middle stage: min with the cap. Between consecutive knots of g o a both
  // it and the cap are linear (the grid holds every cap knot), so they
  // cross at most once there. The cap's values on the grid come from one
  // sweep; only the knee crossings between grid points query it singly.
  SumScratch& scratch = tls_sum_scratch();
  sample(cv, grid, scratch.left, scratch.right);
  SegmentCursor cap_cur(cv);
  Time last_t = 0.0;
  double last_g = 0.0;     // g o a at last_t
  double last_gap = 0.0;   // g o a - cap at last_t
  bool have_last = false;
  compose_walk(g, av, grid,
               [&](Time t, double left, double right, std::size_t k) {
    double cap_l = 0.0;
    double cap_r = 0.0;
    if (k != kOffGrid) {
      cap_l = scratch.left[k];
      cap_r = scratch.right[k];
    } else {
      flat_eval_both(cv, t, cap_cur, cap_l, cap_r);
    }
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
  PwlCurve result(arena.finalize());
  report_pointwise(result.knot_count());
  return result;
}

}  // namespace rta
