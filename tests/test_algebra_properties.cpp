// Randomized algebraic identities over the curve substrate: the operators
// must satisfy the (pointwise) semiring/lattice laws the analyzers silently
// rely on when composing them.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "curve/algebra.hpp"
#include "curve/kernel_hooks.hpp"
#include "curve/transforms.hpp"
#include "util/rng.hpp"

namespace rta {
namespace {

constexpr Time kHorizon = 12.0;

PwlCurve random_curve(Rng& rng) {
  // Mix of steps and ramps: start from a step curve, add a random line.
  std::vector<Time> jumps;
  const int n = rng.uniform_int(0, 8);
  for (int i = 0; i < n; ++i) jumps.push_back(rng.uniform(0.0, kHorizon));
  std::sort(jumps.begin(), jumps.end());
  const PwlCurve steps =
      PwlCurve::step(kHorizon, jumps, rng.uniform(0.25, 2.0));
  return curve_add(steps, PwlCurve::line(kHorizon, rng.uniform(0.0, 1.5)));
}

class AlgebraProperties : public testing::TestWithParam<int> {};

TEST_P(AlgebraProperties, AddIsCommutativeAndAssociative) {
  Rng rng(GetParam());
  const PwlCurve a = random_curve(rng);
  const PwlCurve b = random_curve(rng);
  const PwlCurve c = random_curve(rng);
  EXPECT_TRUE(curve_add(a, b).approx_equal(curve_add(b, a)));
  EXPECT_TRUE(curve_add(curve_add(a, b), c)
                  .approx_equal(curve_add(a, curve_add(b, c))));
}

TEST_P(AlgebraProperties, MinMaxAreCommutativeAssociativeAbsorbing) {
  Rng rng(GetParam() + 1000);
  const PwlCurve a = random_curve(rng);
  const PwlCurve b = random_curve(rng);
  const PwlCurve c = random_curve(rng);
  EXPECT_TRUE(curve_min(a, b).approx_equal(curve_min(b, a)));
  EXPECT_TRUE(curve_max(a, b).approx_equal(curve_max(b, a)));
  EXPECT_TRUE(curve_min(curve_min(a, b), c)
                  .approx_equal(curve_min(a, curve_min(b, c))));
  // Absorption: min(a, max(a, b)) == a.
  EXPECT_TRUE(curve_min(a, curve_max(a, b)).approx_equal(a));
  EXPECT_TRUE(curve_max(a, curve_min(a, b)).approx_equal(a));
}

TEST_P(AlgebraProperties, AdditionDistributesOverMinMax) {
  // a + min(b, c) == min(a+b, a+c) (pointwise arithmetic).
  Rng rng(GetParam() + 2000);
  const PwlCurve a = random_curve(rng);
  const PwlCurve b = random_curve(rng);
  const PwlCurve c = random_curve(rng);
  EXPECT_TRUE(curve_add(a, curve_min(b, c))
                  .approx_equal(curve_min(curve_add(a, b), curve_add(a, c))));
  EXPECT_TRUE(curve_add(a, curve_max(b, c))
                  .approx_equal(curve_max(curve_add(a, b), curve_add(a, c))));
}

TEST_P(AlgebraProperties, SubThenAddRoundTrips) {
  Rng rng(GetParam() + 3000);
  const PwlCurve a = random_curve(rng);
  const PwlCurve b = random_curve(rng);
  EXPECT_TRUE(curve_add(curve_sub(a, b), b).approx_equal(a));
}

TEST_P(AlgebraProperties, ScaleIsLinear) {
  Rng rng(GetParam() + 4000);
  const PwlCurve a = random_curve(rng);
  const PwlCurve b = random_curve(rng);
  const double k = rng.uniform(0.5, 3.0);
  EXPECT_TRUE(curve_scale(curve_add(a, b), k)
                  .approx_equal(curve_add(curve_scale(a, k),
                                          curve_scale(b, k))));
}

TEST_P(AlgebraProperties, ShiftComposes) {
  Rng rng(GetParam() + 5000);
  const PwlCurve a = random_curve(rng);
  const Time d1 = rng.uniform(0.0, 3.0);
  const Time d2 = rng.uniform(0.0, 3.0);
  const PwlCurve lhs = curve_shift_right(curve_shift_right(a, d1), d2);
  const PwlCurve rhs = curve_shift_right(a, d1 + d2);
  EXPECT_LE(lhs.max_abs_difference(rhs), 1e-7);
}

TEST_P(AlgebraProperties, RunningMaxIsIdempotentAndMonotone) {
  Rng rng(GetParam() + 6000);
  const PwlCurve f =
      curve_sub(random_curve(rng), random_curve(rng));  // non-monotone
  const PwlCurve m = curve_running_max(f);
  EXPECT_TRUE(m.is_nondecreasing());
  EXPECT_TRUE(curve_running_max(m).approx_equal(m));
  // Dominates f and is dominated by any monotone dominator: spot-check via
  // max(f, m) == m.
  EXPECT_TRUE(curve_max(f, m).approx_equal(m));
}

TEST_P(AlgebraProperties, PseudoInverseGaloisConnection) {
  // For nondecreasing g: g(t) >= y  <=>  t >= g^{-1}(y) (within tolerance).
  Rng rng(GetParam() + 7000);
  const PwlCurve g = random_curve(rng);
  for (int i = 0; i < 20; ++i) {
    const double y = rng.uniform(0.0, g.end_value() + 0.5);
    const Time inv = g.pseudo_inverse(y);
    if (std::isinf(inv)) {
      EXPECT_LT(g.end_value(), y + 1e-6);
      continue;
    }
    EXPECT_GE(g.eval(inv), y - 1e-6);
    if (inv > 1e-9) {
      EXPECT_LT(g.eval_left(inv * (1.0 - 1e-9)), y + 1e-6);
    }
  }
}

TEST_P(AlgebraProperties, ServiceTransformMonotoneInBothArguments) {
  // More availability or more demand never yields less service.
  Rng rng(GetParam() + 8000);
  std::vector<Time> j1, j2;
  for (int i = 0; i < 5; ++i) {
    j1.push_back(rng.uniform(0.0, kHorizon));
    j2.push_back(rng.uniform(0.0, kHorizon));
  }
  std::sort(j1.begin(), j1.end());
  std::sort(j2.begin(), j2.end());
  const PwlCurve c_small = curve_scale(PwlCurve::step(kHorizon, j1), 0.4);
  const PwlCurve c_big = curve_add(
      c_small, curve_scale(PwlCurve::step(kHorizon, j2), 0.3));
  const PwlCurve a_small = PwlCurve::line(kHorizon, 0.6);
  const PwlCurve a_big = PwlCurve::identity(kHorizon);

  const PwlCurve s_base = service_transform(a_small, c_small);
  const PwlCurve s_more_avail = service_transform(a_big, c_small);
  const PwlCurve s_more_demand = service_transform(a_small, c_big);
  for (double t = 0.0; t <= kHorizon; t += 0.37) {
    EXPECT_GE(s_more_avail.eval(t) + 1e-9, s_base.eval(t)) << t;
    EXPECT_GE(s_more_demand.eval(t) + 1e-9, s_base.eval(t)) << t;
  }
}

// --- Canonical-form properties of the flat SoA storage ---------------------
//
// The CurveArena::finalize() pipeline is the single canonicalizer behind
// both the knot constructor and every kernel. Comparisons are on the shared
// CurveData storage (CurveData::identical = bitwise), not approx_equal:
// canonical forms must be exact.

TEST_P(AlgebraProperties, CanonicalizeIsIdempotentBitwise) {
  // Rebuilding a canonical curve from its own knot vector must reproduce the
  // storage bit for bit (random_curve's interior knots all carry jumps, so
  // the collinear-slim pass provably has nothing more to take).
  Rng rng(GetParam() + 9000);
  const PwlCurve c = random_curve(rng);
  const PwlCurve rebuilt{c.knots()};
  EXPECT_TRUE(CurveData::identical(*c.data(), *rebuilt.data()));
}

TEST_P(AlgebraProperties, CanonicalizePreservesEvalAtKnotsAndMidpoints) {
  Rng rng(GetParam() + 10000);
  const PwlCurve c = random_curve(rng);
  const PwlCurve rebuilt{c.knots()};
  const CurveView v = c.view();
  for (std::size_t i = 0; i < v.n; ++i) {
    EXPECT_EQ(c.eval(v.t[i]), rebuilt.eval(v.t[i]));
    EXPECT_EQ(c.eval_left(v.t[i]), rebuilt.eval_left(v.t[i]));
    if (i + 1 < v.n) {
      const Time mid = 0.5 * (v.t[i] + v.t[i + 1]);
      EXPECT_EQ(c.eval(mid), rebuilt.eval(mid));
    }
  }
}

TEST_P(AlgebraProperties, IdentityIsPointerThenSizeThenBits) {
  // CurveData::identical: a shared handle is identical without looking at
  // the knots; separately built storage is compared bit for bit.
  Rng rng(GetParam() + 12000);
  const PwlCurve a = random_curve(rng);
  const PwlCurve copy = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.data(), a.data());
  EXPECT_TRUE(curves_identical(copy, a));

  const PwlCurve rebuilt{a.knots()};
  EXPECT_NE(rebuilt.data(), a.data());
  EXPECT_TRUE(CurveData::identical(*rebuilt.data(), *a.data()));

  // Same prefix, different continuation: the knot counts differ.
  std::vector<Knot> k1 = a.knots();
  // Pin a jump at the shared boundary so the canonicalizer cannot slim
  // across it, then diverge.
  k1.back().right = k1.back().left + 1.0;
  std::vector<Knot> k2 = k1;
  k1.push_back({2.0 * kHorizon, k1.back().right + 1.0, k1.back().right + 1.0});
  k2.push_back({1.5 * kHorizon, k2.back().right, k2.back().right + 2.0});
  k2.push_back({2.0 * kHorizon, k2.back().right + 3.0, k2.back().right + 3.0});
  EXPECT_FALSE(CurveData::identical(*PwlCurve{k1}.data(),
                                    *PwlCurve{k2}.data()));

  // Same knot count, one value one ulp apart: the memcmp decides.
  std::vector<Knot> k3 = a.knots();
  k3.back().right = std::nextafter(k3.back().right, 1e9);
  const PwlCurve nudged{k3};
  ASSERT_EQ(nudged.knot_count(), a.knot_count());
  EXPECT_FALSE(curves_identical(nudged, a));
}

// --- The n-ary sum kernel (curve_sum / curve_available) --------------------
//
// One merged-grid pass must agree with the left fold of binary kernels it
// replaces, up to the rounding of the fold's canonicalized intermediates.

/// K curves whose jumps sit on a shared set of instants, each operand's copy
/// nudged by up to 1e-10: abscissae that are tolerance-equal across operands
/// but not bitwise equal. The fold's intermediates place such a cluster at
/// one representative and interpolate from there, which is off by up to the
/// cluster's spread times the summed slope (here 2e-10 x 4); the kernel
/// evaluates every operand directly, so the two agree to that bound.
std::vector<PwlCurve> near_coincident_curves(Rng& rng, int k) {
  std::vector<Time> shared;
  const int n = rng.uniform_int(1, 6);
  for (int i = 0; i < n; ++i) shared.push_back(rng.uniform(0.5, kHorizon - 0.5));
  std::sort(shared.begin(), shared.end());
  std::vector<PwlCurve> out;
  for (int c = 0; c < k; ++c) {
    std::vector<Time> jumps = shared;
    for (Time& t : jumps) t += rng.uniform(-1e-10, 1e-10);
    std::sort(jumps.begin(), jumps.end());
    out.push_back(curve_add(PwlCurve::step(kHorizon, jumps,
                                           rng.uniform(0.25, 2.0)),
                            PwlCurve::line(kHorizon, rng.uniform(0.0, 0.5))));
  }
  return out;
}

PwlCurve fold_sum(const std::vector<PwlCurve>& curves) {
  PwlCurve acc = PwlCurve::zero(kHorizon);
  for (const PwlCurve& c : curves) acc = curve_add(acc, c);
  return acc;
}

class PointwiseCalls : public curve::KernelHooks {
 public:
  void on_pointwise(std::size_t knots) override {
    ++calls;
    last_knots = knots;
  }
  void on_pinv() override {}
  int calls = 0;
  std::size_t last_knots = 0;
};

TEST_P(AlgebraProperties, NarySumMatchesLeftFold) {
  Rng rng(GetParam() + 13000);
  for (const int k : {0, 1, 2, 8}) {
    for (const bool near : {false, true}) {
      std::vector<PwlCurve> curves;
      if (near) {
        curves = near_coincident_curves(rng, k);
      } else {
        for (int i = 0; i < k; ++i) curves.push_back(random_curve(rng));
      }
      const PwlCurve base = random_curve(rng);
      const double offset = rng.uniform(-2.0, 2.0);
      const PwlCurve fold = fold_sum(curves);
      EXPECT_LE(curve_sum(curves, kHorizon).max_abs_difference(fold), 1e-9)
          << "K = " << k << " near = " << near;
      const PwlCurve avail_fold =
          curve_add_constant(curve_sub(base, fold), offset);
      EXPECT_LE(curve_available(base, curves, offset)
                    .max_abs_difference(avail_fold),
                1e-9)
          << "K = " << k << " near = " << near;
    }
  }
}

TEST_P(AlgebraProperties, NarySumOfOneSharesItsStorage) {
  Rng rng(GetParam() + 14000);
  const PwlCurve c = random_curve(rng);
  const PwlCurve s = curve_sum({c}, kHorizon);
  EXPECT_EQ(s.data(), c.data());
  EXPECT_TRUE(CurveData::identical(*s.data(), *c.data()));
}

TEST_P(AlgebraProperties, NarySumReportsOnePointwiseOp) {
  Rng rng(GetParam() + 15000);
  for (const int k : {0, 1, 2, 8}) {
    std::vector<PwlCurve> curves;
    for (int i = 0; i < k; ++i) curves.push_back(random_curve(rng));
    const PwlCurve base = random_curve(rng);
    PointwiseCalls sum_calls;
    PointwiseCalls avail_calls;
    PwlCurve sum, avail;
    {
      curve::KernelHooksScope scope(&sum_calls);
      sum = curve_sum(curves, kHorizon);
    }
    {
      curve::KernelHooksScope scope(&avail_calls);
      avail = curve_available(base, curves, -0.5);
    }
    EXPECT_EQ(sum_calls.calls, 1) << "K = " << k;
    EXPECT_EQ(sum_calls.last_knots, sum.knot_count()) << "K = " << k;
    EXPECT_EQ(avail_calls.calls, 1) << "K = " << k;
    EXPECT_EQ(avail_calls.last_knots, avail.knot_count()) << "K = " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraProperties, testing::Range(1, 13));

}  // namespace
}  // namespace rta
