// Unit and property tests for the curve algebra (curve/algebra.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "curve/algebra.hpp"
#include "support/bounds_fold_oracle.hpp"
#include "support/literal_bounds.hpp"
#include "util/rng.hpp"

namespace rta {
namespace {

PwlCurve random_step(Rng& rng, Time horizon, int jumps) {
  std::vector<Time> times;
  for (int i = 0; i < jumps; ++i) times.push_back(rng.uniform(0.0, horizon));
  std::sort(times.begin(), times.end());
  return PwlCurve::step(horizon, times);
}

TEST(Algebra, AddPointwise) {
  const PwlCurve id = PwlCurve::identity(10.0);
  const PwlCurve st = PwlCurve::step(10.0, {2.0, 4.0});
  const PwlCurve sum = curve_add(id, st);
  EXPECT_DOUBLE_EQ(sum.eval(1.0), 1.0);
  EXPECT_DOUBLE_EQ(sum.eval(2.0), 3.0);
  EXPECT_DOUBLE_EQ(sum.eval_left(2.0), 2.0);
  EXPECT_DOUBLE_EQ(sum.eval(5.0), 7.0);
}

TEST(Algebra, SubCanDip) {
  const PwlCurve id = PwlCurve::identity(10.0);
  const PwlCurve st = PwlCurve::step(10.0, {2.0, 2.0, 2.0});
  const PwlCurve diff = curve_sub(id, st);
  EXPECT_DOUBLE_EQ(diff.eval(1.0), 1.0);
  EXPECT_DOUBLE_EQ(diff.eval(2.0), -1.0);
  EXPECT_FALSE(diff.is_nondecreasing());
}

TEST(Algebra, MinMaxInsertCrossings) {
  const PwlCurve id = PwlCurve::identity(10.0);
  const PwlCurve c = PwlCurve::constant(10.0, 4.0);
  const PwlCurve lo = curve_min(id, c);
  const PwlCurve hi = curve_max(id, c);
  EXPECT_DOUBLE_EQ(lo.eval(2.0), 2.0);
  EXPECT_DOUBLE_EQ(lo.eval(4.0), 4.0);
  EXPECT_DOUBLE_EQ(lo.eval(7.0), 4.0);
  EXPECT_DOUBLE_EQ(hi.eval(2.0), 4.0);
  EXPECT_DOUBLE_EQ(hi.eval(7.0), 7.0);
  // Exactness between grid points around the crossing.
  EXPECT_DOUBLE_EQ(lo.eval(3.999), 3.999);
  EXPECT_DOUBLE_EQ(hi.eval(4.001), 4.001);
}

TEST(Algebra, MinMaxIdentities) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const PwlCurve a = random_step(rng, 10.0, 5);
    const PwlCurve b = random_step(rng, 10.0, 5);
    const PwlCurve mn = curve_min(a, b);
    const PwlCurve mx = curve_max(a, b);
    // min + max == a + b pointwise.
    EXPECT_TRUE(curve_add(mn, mx).approx_equal(curve_add(a, b)));
    // min <= a <= max at sampled points.
    for (double t = 0.0; t <= 10.0; t += 0.37) {
      EXPECT_LE(mn.eval(t), a.eval(t) + 1e-9);
      EXPECT_GE(mx.eval(t), a.eval(t) - 1e-9);
    }
  }
}

TEST(Algebra, ScaleAndAddConstant) {
  const PwlCurve st = PwlCurve::step(10.0, {1.0, 2.0});
  const PwlCurve scaled = curve_scale(st, 2.5);
  EXPECT_DOUBLE_EQ(scaled.eval(1.5), 2.5);
  EXPECT_DOUBLE_EQ(scaled.eval(2.0), 5.0);
  const PwlCurve shifted = curve_add_constant(st, -1.0);
  EXPECT_DOUBLE_EQ(shifted.eval(0.0), -1.0);
  EXPECT_DOUBLE_EQ(shifted.eval(2.0), 1.0);
}

TEST(Algebra, ClampMin) {
  const PwlCurve c = curve_add_constant(PwlCurve::identity(10.0), -3.0);
  const PwlCurve clamped = curve_clamp_min(c, 0.0);
  EXPECT_DOUBLE_EQ(clamped.eval(1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamped.eval(3.0), 0.0);
  EXPECT_DOUBLE_EQ(clamped.eval(5.0), 2.0);
}

TEST(Algebra, ShiftRightDelaysCurve) {
  const PwlCurve st = PwlCurve::step(10.0, {1.0, 3.0});
  const PwlCurve sh = curve_shift_right(st, 2.0);
  EXPECT_DOUBLE_EQ(sh.eval(0.5), 0.0);
  EXPECT_DOUBLE_EQ(sh.eval(2.9), 0.0);
  EXPECT_DOUBLE_EQ(sh.eval(3.0), 1.0);
  EXPECT_DOUBLE_EQ(sh.eval(5.0), 2.0);
  EXPECT_DOUBLE_EQ(sh.horizon(), 10.0);
}

TEST(Algebra, ShiftRightZeroIsIdentity) {
  const PwlCurve st = PwlCurve::step(10.0, {1.0});
  EXPECT_TRUE(curve_shift_right(st, 0.0).approx_equal(st));
}

TEST(Algebra, ShiftRightBeyondHorizonIsConstant) {
  const PwlCurve st = PwlCurve::step(10.0, {1.0});
  const PwlCurve sh = curve_shift_right(st, 20.0);
  EXPECT_DOUBLE_EQ(sh.eval(10.0), 0.0);
}

TEST(Algebra, ShiftRightHoldsInitialValue) {
  const PwlCurve st = PwlCurve::step(10.0, {0.0, 4.0});  // value 1 at t=0
  const PwlCurve sh = curve_shift_right(st, 3.0);
  EXPECT_DOUBLE_EQ(sh.eval(0.0), 1.0);  // g(t) = f(0) for t < dt
  EXPECT_DOUBLE_EQ(sh.eval(2.9), 1.0);
  EXPECT_DOUBLE_EQ(sh.eval(7.0), 2.0);
}

TEST(Algebra, RunningMaxOfMonotoneIsIdentity) {
  const PwlCurve id = PwlCurve::identity(10.0);
  EXPECT_TRUE(curve_running_max(id).approx_equal(id));
  const PwlCurve st = PwlCurve::step(10.0, {1.0, 5.0});
  EXPECT_TRUE(curve_running_max(st).approx_equal(st));
}

TEST(Algebra, RunningMaxPlateausOverDips) {
  // f = t - step(2): dips at t=2 from 2 to 1, recovers by t=3.
  const PwlCurve f =
      curve_sub(PwlCurve::identity(10.0), PwlCurve::step(10.0, {2.0}));
  const PwlCurve m = curve_running_max(f);
  EXPECT_DOUBLE_EQ(m.eval(1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.eval(2.0), 2.0);  // left limit kept
  EXPECT_DOUBLE_EQ(m.eval(2.5), 2.0);  // plateau
  EXPECT_DOUBLE_EQ(m.eval(3.0), 2.0);
  EXPECT_DOUBLE_EQ(m.eval(4.0), 3.0);  // follows f again
  EXPECT_TRUE(m.is_nondecreasing());
}

TEST(Algebra, RunningMaxIsSmallestMonotoneDominator) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const PwlCurve f = curve_sub(random_step(rng, 10.0, 6),
                                 random_step(rng, 10.0, 6));
    const PwlCurve m = curve_running_max(f);
    EXPECT_TRUE(m.is_nondecreasing());
    for (double t = 0.0; t <= 10.0; t += 0.31) {
      EXPECT_GE(m.eval(t) + 1e-9, f.eval(t));
      EXPECT_GE(m.eval(t) + 1e-9, f.eval_left(t));
    }
  }
}

TEST(Algebra, RightRunningMinMirrorsRunningMax) {
  // Continuous zig-zag: rises to 3 at t=3, falls to 1 at t=5, rises to 4.
  const PwlCurve f({{0.0, 0.0, 0.0}, {3.0, 3.0, 3.0}, {5.0, 1.0, 1.0},
                    {10.0, 4.0, 4.0}});
  const PwlCurve r = literal::curve_right_running_min(f);
  EXPECT_TRUE(r.is_nondecreasing());
  EXPECT_DOUBLE_EQ(r.eval(0.0), 0.0);
  EXPECT_DOUBLE_EQ(r.eval(2.0), 1.0);   // min over [2,10] is the dip
  EXPECT_DOUBLE_EQ(r.eval(5.0), 1.0);
  EXPECT_DOUBLE_EQ(r.eval(7.0), f.eval(7.0));
  for (double t = 0.0; t <= 10.0; t += 0.13) {
    EXPECT_LE(r.eval(t), f.eval(t) + 1e-9);
  }
}

TEST(Algebra, SumOfCurves) {
  std::vector<PwlCurve> cs = {PwlCurve::step(5.0, {1.0}),
                              PwlCurve::step(5.0, {2.0}),
                              PwlCurve::step(5.0, {3.0})};
  const PwlCurve s = curve_sum(cs, 5.0);
  EXPECT_DOUBLE_EQ(s.eval(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.eval(2.5), 2.0);
  EXPECT_DOUBLE_EQ(s.eval(4.0), 3.0);
  EXPECT_TRUE(curve_sum({}, 5.0).approx_equal(PwlCurve::zero(5.0)));
}

TEST(Algebra, FloorDivCountsCompletions) {
  // S(t) = t: with tau = 2, completions at t = 2, 4, 6, 8, 10.
  const PwlCurve dep = curve_floor_div(PwlCurve::identity(10.0), 2.0);
  EXPECT_DOUBLE_EQ(dep.eval(1.9), 0.0);
  EXPECT_DOUBLE_EQ(dep.eval(2.0), 1.0);
  EXPECT_DOUBLE_EQ(dep.eval(9.99), 4.0);
  EXPECT_DOUBLE_EQ(dep.eval(10.0), 5.0);
  EXPECT_DOUBLE_EQ(dep.pseudo_inverse(3.0), 6.0);
}

TEST(Algebra, FloorDivToleratesEpsilon) {
  // S reaches 2*tau minus epsilon: the tolerant floor still counts 2.
  const PwlCurve s({{0.0, 0.0, 0.0}, {5.0, 4.0 - 1e-11, 4.0 - 1e-11},
                    {10.0, 4.0 - 1e-11, 4.0 - 1e-11}});
  const PwlCurve dep = curve_floor_div(s, 2.0);
  EXPECT_DOUBLE_EQ(dep.end_value(), 2.0);
}

TEST(Algebra, FirstCrossingOnMonotoneMatchesPseudoInverse) {
  const PwlCurve st = PwlCurve::step(10.0, {1.0, 4.0, 7.0});
  for (double y : {0.5, 1.0, 2.0, 3.0}) {
    EXPECT_DOUBLE_EQ(curve_first_crossing(st, y), st.pseudo_inverse(y));
  }
  EXPECT_TRUE(std::isinf(curve_first_crossing(st, 4.0)));
}

TEST(Algebra, FirstCrossingOnDippingCurve) {
  // Rises to 3 at t=3, dips to 1, rises to 4 by t=10.
  const PwlCurve f({{0.0, 0.0, 0.0}, {3.0, 3.0, 3.0}, {5.0, 1.0, 1.0},
                    {10.0, 4.0, 4.0}});
  EXPECT_DOUBLE_EQ(curve_first_crossing(f, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(curve_first_crossing(f, 3.0), 3.0);
  EXPECT_NEAR(curve_first_crossing(f, 3.5), 5.0 + 2.5 / 0.6, 1e-9);
}

/// Lemma 2's crossing counts of `s` (a unit jump at the first instant
/// s(t) >= k*tau, k = 1, 2, ...) through the kernel that computes them,
/// curve_crossing_counts_min_shift, with arrivals that all land at t = 0:
/// more of them than `s` has levels, so the shifted arrivals never bind
/// the min.
PwlCurve crossing_counts(const PwlCurve& s, double tau) {
  double top = 0.0;
  const CurveView v = s.view();
  for (std::size_t i = 0; i < v.n; ++i) top = std::max({top, v.l[i], v.r[i]});
  const std::vector<Time> at_zero(static_cast<std::size_t>(top / tau) + 2,
                                  0.0);
  return curve_crossing_counts_min_shift(
      s, PwlCurve::step(s.horizon(), at_zero), tau);
}

TEST(Algebra, CrossingCountsMatchFloorDivOnMonotone) {
  const PwlCurve s = PwlCurve::identity(10.0);
  const PwlCurve a = crossing_counts(s, 2.0);
  const PwlCurve b = curve_floor_div(s, 2.0);
  EXPECT_TRUE(a.approx_equal(b));
}

// ---- Closed-form kernels of the Theorem 5/6 bounds.

/// A curve with random knots: jumps either way, negative values, and (with
/// `flats`) runs of equal values.
PwlCurve random_wiggly(Rng& rng, Time horizon, int knots, bool flats) {
  std::vector<Time> times{0.0};
  for (int i = 0; i < knots; ++i) times.push_back(rng.uniform(0.0, horizon));
  times.push_back(horizon);
  std::sort(times.begin(), times.end());
  std::vector<Knot> out;
  double prev = rng.uniform(-5.0, 5.0);
  for (Time t : times) {
    if (!out.empty() && time_eq(out.back().t, t)) continue;
    const double left =
        flats && rng.uniform_int(0, 2) == 0 ? prev : rng.uniform(-5.0, 10.0);
    const double right =
        rng.uniform_int(0, 2) == 0 ? rng.uniform(-5.0, 10.0) : left;
    out.push_back({t, left, right});
    prev = right;
  }
  return PwlCurve(out);
}

double brute_hinge_min(const std::vector<Hinge>& hinges, double q) {
  double g = std::numeric_limits<double>::infinity();
  for (const Hinge& h : hinges) {
    g = std::min(g, h.base + std::max(0.0, q - h.knee));
  }
  return g;
}

/// The running max of min(g o a, cap) for a constant cap, against the
/// brute-force hinge minimum, at every knot of either curve and on a dense
/// grid, both sides of each instant. On a segment of `a` the composition is
/// monotone (g is nondecreasing), so its supremum over [0, t] is reached at
/// a knot of `a` or at t itself; the brute force takes exactly those.
void expect_capped_composition(const std::vector<Hinge>& hinges,
                               const PwlCurve& a, double cap) {
  const PwlCurve c = curve_compose_capped_max(
      HingeEnvelope(hinges), a, PwlCurve::constant(a.horizon(), cap));
  ASSERT_TRUE(c.check_invariants());
  const auto f = [&](double q) {
    return std::min(brute_hinge_min(hinges, q), cap);
  };
  const std::vector<Knot> knots = a.knots();
  std::vector<Time> probes;
  for (const Knot& k : knots) probes.push_back(k.t);
  for (const Knot& k : c.knots()) probes.push_back(k.t);
  for (int i = 0; i <= 400; ++i) probes.push_back(a.horizon() * i / 400.0);
  for (Time t : probes) {
    double before = f(a.eval(0.0));  // sup of f over [0, t)
    for (const Knot& k : knots) {
      if (!time_lt(k.t, t)) break;
      before = std::max({before, f(k.left), f(k.right)});
    }
    const double left = t > 0.0 ? std::max(before, f(a.eval_left(t))) : before;
    EXPECT_NEAR(c.eval_left(t), left, 1e-9) << "t- = " << t;
    EXPECT_NEAR(c.eval(t), std::max(left, f(a.eval(t))), 1e-9)
        << "t = " << t;
  }
}

/// g o a itself: a cap above every value g takes on `a` never binds, and
/// the running max of the uncapped composition is what
/// curve_compose_capped_max walks; a mid-range cap binds part of the time.
void expect_composition(const std::vector<Hinge>& hinges, const PwlCurve& a) {
  double hi = 0.0;
  for (const Knot& k : a.knots()) {
    hi = std::max({hi, brute_hinge_min(hinges, k.left),
                   brute_hinge_min(hinges, k.right)});
  }
  expect_capped_composition(hinges, a, hi + 1.0);
  expect_capped_composition(hinges, a, 0.5 * hi);
}

TEST(Algebra, HingeEnvelopeSingleHinge) {
  const HingeEnvelope g({{2.0, 5.0}});
  ASSERT_EQ(g.breakpoints().size(), 1u);
  EXPECT_DOUBLE_EQ(g(-3.0), 2.0);
  EXPECT_DOUBLE_EQ(g(5.0), 2.0);
  EXPECT_DOUBLE_EQ(g(7.5), 4.5);
}

TEST(Algebra, HingeEnvelopeTiedKnees) {
  // Three hinges share knee 1; the lowest base wins there, and the hinge
  // at knee 4 takes over once its flat part undercuts the rising one.
  const std::vector<Hinge> hinges = {
      {3.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}, {1.5, 4.0}};
  const HingeEnvelope g(hinges);
  for (double q = -2.0; q <= 8.0; q += 0.125) {
    EXPECT_NEAR(g(q), brute_hinge_min(hinges, q), 1e-12) << q;
  }
  // Breakpoints only where the slope changes: 1 (0 -> 1), 1.5 (1 -> 0),
  // 4 (0 -> 1).
  EXPECT_EQ(g.breakpoints(), (std::vector<double>{1.0, 1.5, 4.0}));
}

TEST(Algebra, HingeEnvelopeMatchesBruteForce) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = rng.uniform_int(1, 40);
    const double tau = rng.uniform(0.1, 2.0);
    std::vector<Hinge> hinges;
    for (int i = 0; i < n; ++i) {
      // Knees on a coarse lattice now and then, so ties occur.
      const double knee = rng.uniform_int(0, 3) == 0
                              ? 0.5 * rng.uniform_int(-4, 20)
                              : rng.uniform(-2.0, 10.0);
      hinges.push_back({i * tau, knee});
    }
    const HingeEnvelope g(hinges);
    const std::vector<double>& q = g.breakpoints();
    const std::vector<double>& v = g.values();
    ASSERT_LE(q.size(), static_cast<std::size_t>(2 * n + 1));
    for (std::size_t j = 0; j < q.size(); ++j) {
      EXPECT_NEAR(v[j], brute_hinge_min(hinges, q[j]), 1e-12);
      if (j + 1 < q.size()) {
        ASSERT_LT(q[j], q[j + 1]);
        // Segments alternate slope 1 (even j) and slope 0 (odd j).
        const double slope = (v[j + 1] - v[j]) / (q[j + 1] - q[j]);
        EXPECT_NEAR(slope, j % 2 == 0 ? 1.0 : 0.0, 1e-9);
      }
    }
    for (int i = 0; i <= 200; ++i) {
      const double x = -4.0 + 16.0 * i / 200.0;
      EXPECT_NEAR(g(x), brute_hinge_min(hinges, x), 1e-12) << x;
    }
  }
}

TEST(Algebra, ComposeFollowsJumpsDipsAndFlats) {
  // Negative start, a flat run, a downward jump at 3, a rising run across
  // several breakpoints, an upward jump at 7 and a falling run to 0.
  const PwlCurve a({{0.0, -2.0, -2.0},
                    {1.0, -1.0, -1.0},
                    {2.0, -1.0, -1.0},
                    {3.0, 4.0, 1.5},
                    {6.0, 7.0, 7.0},
                    {7.0, 7.0, 9.0},
                    {10.0, 0.0, 0.0}});
  const std::vector<Hinge> hinges = {
      {0.0, -1.5}, {1.0, 1.0}, {2.0, 2.5}, {3.0, 6.0}};
  expect_composition(hinges, a);
  expect_composition({{0.0, 0.0}}, a);  // single hinge: max(0, a(t))
}

TEST(Algebra, ComposeMatchesBruteForceOnRandomCurves) {
  Rng rng(2024);
  for (int trial = 0; trial < 150; ++trial) {
    const PwlCurve a =
        random_wiggly(rng, 20.0, rng.uniform_int(0, 30), trial % 2 == 0);
    std::vector<Hinge> hinges;
    const int n = rng.uniform_int(1, 25);
    const double tau = rng.uniform(0.2, 2.0);
    for (int i = 0; i < n; ++i) {
      hinges.push_back({i * tau, rng.uniform(-6.0, 12.0)});
    }
    expect_composition(hinges, a);
  }
}

TEST(Algebra, PrefixMinStepsAtZeroAndHorizon) {
  // Two entries at t = 0 (the later one lower), one that never wins, one
  // inside the horizon and one exactly at it.
  const PwlCurve p = curve_prefix_min_steps(
      10.0, {0.0, 0.0, 4.0, 6.0, 10.0}, {1.0, -2.0, 5.0, -3.0, -7.0});
  EXPECT_DOUBLE_EQ(p.horizon(), 10.0);
  EXPECT_DOUBLE_EQ(p.eval(0.0), -2.0);
  EXPECT_DOUBLE_EQ(p.eval(5.9), -2.0);
  EXPECT_DOUBLE_EQ(p.eval(6.0), -3.0);
  // The entry at the horizon applies at t = H only.
  EXPECT_DOUBLE_EQ(p.eval(9.999), -3.0);
  EXPECT_DOUBLE_EQ(p.eval_left(10.0), -3.0);
  EXPECT_DOUBLE_EQ(p.eval(10.0), -7.0);
  // Entries past the horizon are ignored.
  const PwlCurve q = curve_prefix_min_steps(10.0, {0.0, 12.0}, {0.0, -5.0});
  EXPECT_DOUBLE_EQ(q.end_value(), 0.0);
  EXPECT_DOUBLE_EQ(q.horizon(), 10.0);
}

TEST(Algebra, CrossingCountsResumedScanMatchesPerLevelScan) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    const PwlCurve a =
        random_wiggly(rng, 30.0, rng.uniform_int(0, 40), trial % 3 == 0);
    const double tau = trial % 4 == 0 ? 1.0 : rng.uniform(0.05, 3.0);
    const PwlCurve fast = crossing_counts(a, tau);
    const PwlCurve slow = oracle::crossing_counts_per_level(a, tau);
    EXPECT_TRUE(CurveData::identical(*fast.data(), *slow.data()))
        << "trial " << trial << ": " << fast << " vs " << slow;
  }
}

}  // namespace
}  // namespace rta
