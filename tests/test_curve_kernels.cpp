// Differential oracle for the flat SoA curve kernels.
//
// Every kernel that was rewritten onto the flat CurveArena storage
// (construction/canonicalization, eval/eval_left, Def.5 pseudo-inverse,
// pointwise combine, the Theorem-3 min-scan) is run side by side with the
// legacy knot-walking implementation transplanted verbatim into
// support/curve_reference.hpp, over thousands of randomized
// curves drawn from adversarial families: steps, bursty time_eq clusters,
// degenerate single-knot curves, horizon-edge knots, upward-jump-dense and
// non-monotone curves. Agreement must be BIT-EXACT: the repo's determinism
// story (differential engine runs, digest-checked service streams, the
// iterative engine's bitwise pass-skip memo) sits on top of these kernels,
// so "close enough" is a regression.
//
// All comparisons go through std::bit_cast<uint64_t> rather than operator==
// on double. If this lived under src/, each comparison would carry an
// `// rta-lint: allow(float-eq) bit-exact oracle comparison` suppression;
// comparing bit patterns is the lint-endorsed way to spell exact equality.
//
// Failures reproduce from the ctest log: every check is wrapped in a
// SCOPED_TRACE carrying the generator seed and curve family.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/bounds.hpp"
#include "curve/algebra.hpp"
#include "curve/curve_arena.hpp"
#include "curve/transforms.hpp"
#include "model/priority.hpp"
#include "support/bounds_fold_oracle.hpp"
#include "support/curve_reference.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

constexpr Time kH = 10.0;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

testing::AssertionResult bit_equal(const char* a_expr, const char* b_expr,
                                   double a, double b) {
  if (bits(a) == bits(b)) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << a_expr << " and " << b_expr << " differ bitwise: "
         << testing::PrintToString(a) << " vs " << testing::PrintToString(b);
}

#define EXPECT_BITEQ(a, b) EXPECT_PRED_FORMAT2(bit_equal, a, b)

/// Flat curve vs legacy reference: identical knot storage, bit for bit.
void expect_identical(const PwlCurve& flat, const legacyref::Curve& ref) {
  ASSERT_EQ(flat.knot_count(), ref.size());
  const CurveView v = flat.view();
  for (std::size_t i = 0; i < v.n; ++i) {
    SCOPED_TRACE("knot " + std::to_string(i));
    EXPECT_BITEQ(v.t[i], ref[i].t);
    EXPECT_BITEQ(v.l[i], ref[i].left);
    EXPECT_BITEQ(v.r[i], ref[i].right);
  }
}

// ---------------------------------------------------------------------------
// Randomized curve families. Raw knot vectors satisfy the constructor's
// preconditions (sorted times, time_eq duplicates allowed) but are otherwise
// adversarial: tolerance-tight clusters, knots epsilon-off the horizon,
// exactly-collinear runs, dense upward jumps.

enum Family {
  kSteps = 0,        // monotone staircase
  kBurst,            // clusters of time_eq-adjacent jumps (merge fixups)
  kRampJump,         // monotone ramps with occasional jumps
  kDegenerate,       // single knot / merged-to-single / constant
  kHorizonEdge,      // knots within epsilon of the horizon and each other
  kJumpDense,        // a jump at every knot, non-monotone values
  kWiggle,           // continuous non-monotone, with exactly-collinear runs
  kFamilyCount,
};

const char* family_name(int f) {
  static const char* kNames[] = {"steps",       "burst",      "ramp_jump",
                                 "degenerate",  "horizon_edge", "jump_dense",
                                 "wiggle"};
  return kNames[f % kFamilyCount];
}

std::vector<Knot> make_raw(Rng& rng, int family) {
  constexpr int max_interior = 10;
  std::vector<Knot> ks;
  switch (family % kFamilyCount) {
    case kSteps: {
      const int n = rng.uniform_int(0, max_interior);
      std::vector<Time> jumps;
      for (int i = 0; i < n; ++i) jumps.push_back(rng.uniform(0.0, kH));
      std::sort(jumps.begin(), jumps.end());
      const double h = rng.uniform(0.2, 1.5);
      double level = 0.0;
      ks.push_back({0.0, 0.0, 0.0});
      for (Time t : jumps) {
        ks.push_back({t, level, level + h});
        level += h;
      }
      ks.push_back({kH, level, level});
      break;
    }
    case kBurst: {
      const int clusters = rng.uniform_int(1, std::max(1, max_interior / 3));
      std::vector<Time> centers;
      for (int i = 0; i < clusters; ++i) {
        centers.push_back(rng.uniform(0.5, kH - 0.5));
      }
      std::sort(centers.begin(), centers.end());
      double level = rng.uniform(0.0, 0.5);
      ks.push_back({0.0, level, level});
      for (Time c : centers) {
        if (c <= ks.back().t) continue;
        const int burst = rng.uniform_int(2, 4);
        for (int j = 0; j < burst; ++j) {
          // Adjacent knots a fraction of the time tolerance apart: they
          // chain-merge into one composite jump.
          const Time t = c + static_cast<double>(j) * 3e-10;
          const double before = level;
          level += rng.uniform(0.2, 1.0);
          ks.push_back({t, before, level});
        }
      }
      ks.push_back({kH, level, level});
      break;
    }
    case kRampJump: {
      double val = rng.uniform(0.0, 1.0);
      ks.push_back({0.0, val, val});
      Time t = 0.0;
      for (int i = 0; i < max_interior; ++i) {
        t += rng.uniform(0.4, 2.0);
        if (t >= kH) break;
        val += rng.uniform(0.0, 1.5);  // ramp up to the knot
        const double jump =
            rng.uniform_int(0, 2) == 0 ? rng.uniform(0.2, 1.0) : 0.0;
        ks.push_back({t, val, val + jump});
        val += jump;
      }
      val += rng.uniform(0.0, 1.0);
      ks.push_back({kH, val, val});
      break;
    }
    case kDegenerate: {
      const double v = rng.uniform(-1.0, 1.0);
      switch (rng.uniform_int(0, 2)) {
        case 0:  // single knot
          ks.push_back({0.0, v, v});
          break;
        case 1:  // two knots merging into one (tiny horizon)
          ks.push_back({0.0, v, v});
          ks.push_back({4e-10, v, v + rng.uniform(0.0, 1.0)});
          break;
        default:  // constant
          ks.push_back({0.0, v, v});
          ks.push_back({kH, v, v});
          break;
      }
      break;
    }
    case kHorizonEdge: {
      double level = 0.0;
      ks.push_back({0.0, 0.0, 0.0});
      const int n = rng.uniform_int(0, 3);
      for (int i = 0; i < n; ++i) {
        const Time t = rng.uniform(0.5, kH - 1.0);
        if (t <= ks.back().t) continue;
        const double before = level;
        level += rng.uniform(0.2, 1.0);
        ks.push_back({t, before, level});
      }
      // A knot epsilon-below the horizon, then the horizon knot: time_eq
      // merges them; eval probes at the seam hit the snap branches.
      const double before = level;
      level += rng.uniform(0.2, 1.0);
      ks.push_back({kH - 4e-10, before, level});
      ks.push_back({kH, level, level + rng.uniform(0.0, 0.5)});
      break;
    }
    case kJumpDense: {
      ks.push_back({0.0, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)});
      Time t = 0.0;
      for (int i = 0; i < max_interior; ++i) {
        t += rng.uniform(0.3, 1.2);
        if (t >= kH) break;
        ks.push_back({t, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)});
      }
      ks.push_back({kH, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)});
      break;
    }
    default: {  // kWiggle
      double val = rng.uniform(-1.0, 1.0);
      double slope = rng.uniform(-1.0, 1.0);
      Time t = 0.0;
      ks.push_back({0.0, val, val});
      for (int i = 0; i < max_interior; ++i) {
        const Time dt = rng.uniform(0.4, 1.5);
        t += dt;
        if (t >= kH) break;
        if (rng.uniform_int(0, 2) == 0) {
          // Keep the previous slope: exactly-collinear interior knot, the
          // canonicalizer must drop it (identically on both sides).
          val += slope * dt;
        } else {
          slope = rng.uniform(-1.0, 1.0);
          val += rng.uniform(-1.0, 1.0);
        }
        ks.push_back({t, val, val});
      }
      val += rng.uniform(-1.0, 1.0);
      ks.push_back({kH, val, val});
      break;
    }
  }
  return ks;
}

/// Probe instants that stress every eval branch: the knots themselves,
/// epsilon offsets inside and outside the time tolerance, segment midpoints,
/// both sides of 0 and the horizon, and uniform draws.
std::vector<Time> probe_times(const PwlCurve& c, Rng& rng) {
  std::vector<Time> ts = {-1.0, 0.0, 1e-12, -1e-12, c.horizon(),
                          c.horizon() + 1.0};
  const CurveView v = c.view();
  for (std::size_t i = 0; i < v.n; ++i) {
    const Time t = v.t[i];
    ts.push_back(t);
    ts.push_back(t - 3e-10);  // inside the snap tolerance
    ts.push_back(t + 3e-10);
    ts.push_back(t - 1e-6);  // outside it
    ts.push_back(t + 1e-6);
    if (i + 1 < v.n) ts.push_back(0.5 * (t + v.t[i + 1]));
  }
  for (int i = 0; i < 8; ++i) ts.push_back(rng.uniform(-0.5, kH + 0.5));
  return ts;
}

// ---------------------------------------------------------------------------
// Construction + eval/eval_left differential. Also the constructor audit's
// randomized half: the canonicalization pipelines must agree bit for bit on
// every family, including the merge/slim fixup paths.

TEST(CurveKernelDifferential, ConstructionAndEval) {
  constexpr int kCases = 5250;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(seed));
    const int family = seed % kFamilyCount;
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed) + " family=" +
                 family_name(family));
    const std::vector<Knot> raw = make_raw(rng, family);
    const PwlCurve flat{std::vector<Knot>(raw)};
    const legacyref::Curve ref = legacyref::make_curve(raw);
    expect_identical(flat, ref);
    for (Time t : probe_times(flat, rng)) {
      EXPECT_BITEQ(flat.eval(t), legacyref::eval(ref, t)) << "t=" << t;
      EXPECT_BITEQ(flat.eval_left(t), legacyref::eval_left(ref, t))
          << "t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Def.5 pseudo-inverse differential over monotone families, probing exact
// knot levels, jump interiors, flat segments and both out-of-range sides.

TEST(CurveKernelDifferential, PseudoInverse) {
  constexpr int kCases = 5120;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0xBEEFu + static_cast<std::uint64_t>(seed));
    const int family = seed % 3;  // kSteps, kBurst, kRampJump
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed) + " family=" +
                 family_name(family));
    const std::vector<Knot> raw = make_raw(rng, family);
    const PwlCurve flat{std::vector<Knot>(raw)};
    const legacyref::Curve ref = legacyref::make_curve(raw);
    ASSERT_TRUE(flat.is_nondecreasing());
    std::vector<double> levels = {-1.0, 0.0, flat.end_value(),
                                  flat.end_value() + 0.5,
                                  flat.end_value() + 1e-8};
    const CurveView v = flat.view();
    for (std::size_t i = 0; i < v.n; ++i) {
      levels.push_back(v.r[i]);
      levels.push_back(v.r[i] - 5e-8);  // inside the value tolerance
      levels.push_back(v.r[i] + 5e-8);
      levels.push_back(0.5 * (v.l[i] + v.r[i]));  // inside a jump
      if (i + 1 < v.n) levels.push_back(0.5 * (v.r[i] + v.l[i + 1]));
    }
    for (int i = 0; i < 6; ++i) {
      levels.push_back(rng.uniform(-0.5, flat.end_value() + 0.5));
    }
    for (double y : levels) {
      EXPECT_BITEQ(flat.pseudo_inverse(y), legacyref::pseudo_inverse(ref, y))
          << "y=" << y;
    }
  }
}

// ---------------------------------------------------------------------------
// Pointwise combine: add/sub/min/max each see >= 5000 operand curves.

TEST(CurveKernelDifferential, PointwiseCombine) {
  constexpr int kPairs = 2600;
  for (int seed = 0; seed < kPairs; ++seed) {
    Rng rng(0xABBAu + static_cast<std::uint64_t>(seed));
    const int fa = seed % kFamilyCount;
    const int fb = (seed / kFamilyCount + seed) % kFamilyCount;
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed) + " a=" +
                 family_name(fa) + " b=" + family_name(fb));
    std::vector<Knot> raw_a = make_raw(rng, fa);
    std::vector<Knot> raw_b = make_raw(rng, fb);
    // Combine requires matching horizons; degenerate curves are exercised
    // through ConstructionAndEval instead.
    if (raw_a.back().t < kH) raw_a.push_back({kH, 0.0, 0.0});
    if (raw_b.back().t < kH) raw_b.push_back({kH, 0.0, 0.0});
    const PwlCurve a{std::vector<Knot>(raw_a)};
    const PwlCurve b{std::vector<Knot>(raw_b)};
    const legacyref::Curve ra = legacyref::make_curve(raw_a);
    const legacyref::Curve rb = legacyref::make_curve(raw_b);
    expect_identical(curve_add(a, b), legacyref::add(ra, rb));
    expect_identical(curve_sub(a, b), legacyref::sub(ra, rb));
    expect_identical(curve_min(a, b), legacyref::min(ra, rb));
    expect_identical(curve_max(a, b), legacyref::max(ra, rb));
    const double k = rng.uniform(-2.0, 2.0);
    expect_identical(curve_scale(a, k), legacyref::scale(ra, k));
    expect_identical(curve_add_constant(b, k),
                     legacyref::add_constant(rb, k));
    const Time dt = rng.uniform_int(0, 3) == 0 ? 0.0 : rng.uniform(0.1, kH);
    expect_identical(curve_shift_right(a, dt), legacyref::shift_right(ra, dt));
  }
}

// ---------------------------------------------------------------------------
// Theorem-3 min-scan: the running-max core over non-monotone curves, and the
// full service_transform composition (lagged and unlagged).

TEST(CurveKernelDifferential, MinScanRunningMax) {
  constexpr int kCases = 5200;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0xDEADu + static_cast<std::uint64_t>(seed));
    const int family = (seed % 2 == 0) ? kJumpDense : kWiggle;
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed) + " family=" +
                 family_name(family));
    const std::vector<Knot> raw = make_raw(rng, family);
    const PwlCurve flat{std::vector<Knot>(raw)};
    const legacyref::Curve ref = legacyref::make_curve(raw);
    expect_identical(curve_running_max(flat), legacyref::running_max(ref));
  }
}

TEST(CurveKernelDifferential, MinScanServiceTransform) {
  constexpr int kCases = 2600;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0xFACEu + static_cast<std::uint64_t>(seed));
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    // Availability: continuous nondecreasing from 0 (a processor-share
    // curve). Workload: monotone staircase demand.
    std::vector<Knot> avail;
    {
      double val = 0.0;
      avail.push_back({0.0, 0.0, 0.0});
      Time t = 0.0;
      while (true) {
        t += rng.uniform(0.8, 2.5);
        if (t >= kH) break;
        val += rng.uniform(0.0, 2.0);
        avail.push_back({t, val, val});
      }
      val += rng.uniform(0.5, 2.0);
      avail.push_back({kH, val, val});
    }
    const std::vector<Knot> work = make_raw(rng, seed % 2 == 0 ? kSteps
                                                               : kBurst);
    const Time lag = rng.uniform_int(0, 1) == 0 ? 0.0 : rng.uniform(0.2, 4.0);
    const PwlCurve a{std::vector<Knot>(avail)};
    const PwlCurve w{std::vector<Knot>(work)};
    if (!time_eq(w.horizon(), kH)) continue;  // degenerate merge artifact
    const legacyref::Curve ra = legacyref::make_curve(avail);
    const legacyref::Curve rw = legacyref::make_curve(work);
    expect_identical(service_transform(a, w, lag),
                     legacyref::service_transform(ra, rw, lag));
  }
}

// ---------------------------------------------------------------------------
// Constructor knot-merge audit (satellite: time_eq fixups vs a brute-force
// oracle). The oracle below restates the *documented* semantics directly:
// sorted knots chain-group by time tolerance against the group's first
// abscissa; each group keeps the first left limit and the last right value;
// the result is anchored at 0 and the first left limit pinned.
//
// Inputs are jump-dense on a value lattice (lefts on even multiples of 0.01,
// rights on odd multiples), so |left - right| >= 0.01 everywhere and the
// collinear-slim pass provably never fires -- the constructor must match the
// oracle bit for bit.

std::vector<Knot> brute_merge_oracle(std::vector<Knot> raw) {
  if (!time_eq(raw.front().t, 0.0)) {
    raw.insert(raw.begin(), {0.0, raw.front().left, raw.front().left});
  } else {
    raw.front().t = 0.0;
  }
  std::vector<Knot> out;
  for (const Knot& k : raw) {
    if (!out.empty() && time_eq(out.back().t, k.t)) {
      out.back().right = k.right;  // last right of the group wins
    } else {
      out.push_back(k);  // group anchor: first time, first left
    }
  }
  out.front().left = out.front().right;
  return out;
}

TEST(CurveConstructorAudit, MergeFixupsMatchBruteForceOracle) {
  constexpr int kCases = 5000;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0x5EEDu + static_cast<std::uint64_t>(seed));
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::vector<Knot> raw;
    auto lattice_left = [&] {
      return 0.02 * static_cast<double>(rng.uniform_int(-100, 100));
    };
    auto lattice_right = [&] {
      return 0.02 * static_cast<double>(rng.uniform_int(-100, 100)) + 0.01;
    };
    Time t = rng.uniform_int(0, 3) == 0 ? rng.uniform(0.1, 1.0) : 0.0;
    const int n = rng.uniform_int(1, 12);
    for (int i = 0; i < n; ++i) {
      raw.push_back({t, lattice_left(), lattice_right()});
      if (rng.uniform_int(0, 2) == 0) {
        t += rng.uniform(0.0, 1.0) * 8e-10;  // stay inside the tolerance
      } else {
        t += rng.uniform(0.1, 2.0);
      }
    }
    const PwlCurve flat{std::vector<Knot>(raw)};
    const std::vector<Knot> oracle = brute_merge_oracle(raw);
    ASSERT_EQ(flat.knot_count(), oracle.size());
    const CurveView v = flat.view();
    for (std::size_t i = 0; i < v.n; ++i) {
      SCOPED_TRACE("knot " + std::to_string(i));
      EXPECT_BITEQ(v.t[i], oracle[i].t);
      EXPECT_BITEQ(v.l[i], oracle[i].left);
      EXPECT_BITEQ(v.r[i], oracle[i].right);
    }
    ASSERT_TRUE(flat.check_invariants());
  }
}

// Audited quirk #1 (intentional, kept): grouping is CHAINED. A run of knots
// each within tolerance of the group's first abscissa merges into one knot
// even when later additions are no longer time_eq to each other -- the
// comparison is always against the group anchor, never the previous member.
// The brute-force oracle above encodes the same rule, and the randomized
// audit would catch any divergence; this test pins the behavior explicitly.
TEST(CurveConstructorAudit, ChainedMergeUsesGroupAnchor) {
  const std::vector<Knot> raw = {{0.0, 0.0, 0.0},
                                 {5.0, 1.0, 2.0},
                                 {5.0 + 8e-10, 2.0, 3.0},
                                 {kH, 3.0, 3.0}};
  const PwlCurve c{std::vector<Knot>(raw)};
  ASSERT_EQ(c.knot_count(), 3u);
  EXPECT_BITEQ(c.knot_time(1), 5.0);   // group anchor time
  EXPECT_BITEQ(c.knot_left(1), 1.0);   // first left
  EXPECT_BITEQ(c.knot_right(1), 3.0);  // last right
}

// Audited quirk #2 (intentional, kept -- the "reasoned suppression" of the
// audit): the collinear-slim pass is GREEDY. Each drop re-anchors the chord
// at the last *kept* knot, so a long run of nearly-collinear knots can drift
// by up to kValueEps per dropped knot relative to the original polyline.
// Fixing this would change every canonical curve in the repo (and every
// digest built on them) for a value drift that stays tolerance-bounded per
// step; the differential suite instead proves both implementations drift
// IDENTICALLY (ConstructionAndEval covers the kWiggle family). This test
// documents the bound on a worst-case chain.
TEST(CurveConstructorAudit, GreedySlimDriftIsToleranceBoundedPerStep) {
  // A shallow parabola sampled densely: every knot is within kValueEps of
  // the chord the greedy pass is currently testing against, yet the chain as
  // a whole bends by many multiples of kValueEps. The greedy pass keeps
  // dropping (re-anchoring occasionally), so the canonical curve deviates
  // from the original polyline by more than one tolerance -- but never by
  // more than kValueEps per dropped knot.
  std::vector<Knot> raw;
  const int kChain = 30;
  const double c2 = kValueEps / 20.0;  // curvature: per-step chord error < eps
  for (int i = 0; i <= kChain; ++i) {
    const double val = c2 * static_cast<double>(i) * static_cast<double>(i);
    raw.push_back({static_cast<Time>(i) * 0.1, val, val});
  }
  raw.push_back({kH, raw.back().right, raw.back().right});
  const PwlCurve c{std::vector<Knot>(raw)};
  const legacyref::Curve ref = legacyref::make_curve(raw);
  expect_identical(c, ref);  // both sides slim the same knots
  // The canonical curve dropped most of the chain; its value error at any
  // original knot is bounded by the accumulated per-drop tolerance.
  EXPECT_LT(c.knot_count(), raw.size());
  for (const Knot& k : raw) {
    EXPECT_NEAR(c.eval(k.t), k.right,
                kValueEps * static_cast<double>(kChain));
  }
}

// ---------------------------------------------------------------------------
// The step factory is a kernel too (counting curves feed curve_floor_div and
// crossing counts): differential against the legacy factory.

TEST(CurveKernelDifferential, StepFactory) {
  constexpr int kCases = 5000;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0x57E9u + static_cast<std::uint64_t>(seed));
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::vector<Time> jumps;
    const int n = rng.uniform_int(0, 12);
    for (int i = 0; i < n; ++i) jumps.push_back(rng.uniform(-0.1, kH + 0.5));
    std::sort(jumps.begin(), jumps.end());
    const double h = rng.uniform(0.1, 2.0);
    expect_identical(PwlCurve::step(kH, jumps, h),
                     legacyref::step(kH, jumps, h));
  }
}

// ---------------------------------------------------------------------------
// Fused one-pass kernels of the Theorem 5/6 bounds against the binary chains
// they replace. The fused kernels skip the chains' canonicalized
// intermediates (and their interpolation rounding), so agreement is within
// 1e-9 at every knot of either result, left limits and values, rather than
// bit for bit.

constexpr double kFusedTol = 1e-9;

/// A raw curve of the given family on exactly [0, kH].
PwlCurve full_horizon_curve(Rng& rng, int family) {
  std::vector<Knot> raw = make_raw(rng, family);
  if (raw.back().t < kH) raw.push_back({kH, 0.0, 0.0});
  return PwlCurve(std::move(raw));
}

/// Knots on integer times with small integer values: equal values at shared
/// grid points and crossings exactly on a knot are common.
PwlCurve lattice_curve(Rng& rng) {
  std::vector<Knot> ks;
  double v = rng.uniform_int(0, 4);
  ks.push_back({0.0, v, v});
  for (int t = 1; t <= static_cast<int>(kH); ++t) {
    if (rng.uniform_int(0, 2) == 0) continue;
    const double left = rng.uniform_int(0, 6);
    const double right = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(0, 6)
                                                    : left;
    ks.push_back({static_cast<Time>(t), left, right});
  }
  if (ks.back().t < kH) ks.push_back({kH, v, v});
  return PwlCurve(std::move(ks));
}

/// The binary chain curve_min_of_sums replaces: a curve_add (and
/// curve_add_constant) per term, then a left fold of curve_min.
PwlCurve min_of_sums_chain(const std::vector<SumTerm>& terms) {
  std::optional<PwlCurve> acc;
  for (const SumTerm& term : terms) {
    PwlCurve sum = term.b != nullptr ? curve_add(*term.a, *term.b) : *term.a;
    sum = curve_add_constant(sum, term.offset);
    acc = acc ? curve_min(*acc, sum) : sum;
  }
  return *acc;
}

TEST(CurveKernelDifferential, MinOfSumsMatchesBinaryChain) {
  constexpr int kCases = 3000;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0x53A5u + static_cast<std::uint64_t>(seed));
    const bool lattice = seed % 4 == 0;
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed) +
                 (lattice ? " lattice" : " families"));
    // Every family but kHorizonEdge, whose horizon ends 4e-10 short of kH:
    // merging that end into kH moves a crossing by as much, which on the
    // steep families is more than 1e-9 in value though within the time
    // tolerance.
    const int families[] = {kSteps, kBurst,     kRampJump,
                            kDegenerate, kJumpDense, kWiggle};
    const int count = rng.uniform_int(1, 4);
    std::vector<PwlCurve> curves;  // two operands per term, b maybe unused
    for (int i = 0; i < 2 * count; ++i) {
      curves.push_back(lattice ? lattice_curve(rng)
                               : full_horizon_curve(
                                     rng, families[rng.uniform_int(0, 5)]));
    }
    std::vector<SumTerm> terms;
    for (int k = 0; k < count; ++k) {
      SumTerm term{&curves[2 * k]};
      if (rng.uniform_int(0, 2) != 0) term.b = &curves[2 * k + 1];
      if (rng.uniform_int(0, 2) == 0) {
        term.offset = lattice ? rng.uniform_int(-2, 2) : rng.uniform(-1.0, 1.0);
      }
      terms.push_back(term);
    }
    const PwlCurve fused = curve_min_of_sums(terms);
    const PwlCurve chain = min_of_sums_chain(terms);
    ASSERT_TRUE(fused.check_invariants());
    EXPECT_LE(fused.max_abs_difference(chain), kFusedTol)
        << "fused " << fused << "\nchain " << chain;
  }
}

TEST(CurveKernelDifferential, MinOfSumsTwoCrossingsInOneInterval) {
  // t, 3 and 8 - t share one grid interval [0, 10]: the min turns at t = 3
  // and t = 5 (t and 8 - t cross at 4, above the min, which adds no knot).
  const PwlCurve ident = PwlCurve::identity(kH);
  const PwlCurve three = PwlCurve::constant(kH, 3.0);
  const PwlCurve falling({{0.0, 8.0, 8.0}, {kH, -2.0, -2.0}});
  const std::vector<SumTerm> terms = {{&ident}, {&three}, {&falling}};
  const PwlCurve fused = curve_min_of_sums(terms);
  EXPECT_LE(fused.max_abs_difference(min_of_sums_chain(terms)), kFusedTol);
  ASSERT_EQ(fused.knot_count(), 4u) << fused;
  EXPECT_NEAR(fused.knot_time(1), 3.0, 1e-12);
  EXPECT_NEAR(fused.knot_time(2), 5.0, 1e-12);
  EXPECT_NEAR(fused.eval(4.0), 3.0, 1e-12);
  EXPECT_NEAR(fused.end_value(), -2.0, 1e-12);
}

TEST(CurveKernelDifferential, MinOfSumsTieAtGridPointAndJump) {
  // t + 1 meets a curve exactly at its knot t = 4 and then inside its jump
  // at t = 7: no crossing is needed at the tie, the jump carries the other.
  const PwlCurve ident = PwlCurve::identity(kH);
  const PwlCurve other(
      {{0.0, 3.0, 3.0}, {4.0, 5.0, 5.0}, {7.0, 6.0, 9.0}, {kH, 9.0, 9.0}});
  const std::vector<SumTerm> terms = {{&ident, nullptr, 1.0}, {&other}};
  const PwlCurve fused = curve_min_of_sums(terms);
  EXPECT_LE(fused.max_abs_difference(min_of_sums_chain(terms)), kFusedTol);
  EXPECT_NEAR(fused.eval(4.0), 5.0, 1e-12);
  EXPECT_NEAR(fused.eval_left(7.0), 6.0, 1e-12);
  EXPECT_NEAR(fused.eval(7.0), 8.0, 1e-12);
}

/// The chain curve_compose_capped_max replaces, composing with the ladder
/// reference (the composition has no kernel of its own).
PwlCurve compose_capped_max_chain(const HingeEnvelope& g, const PwlCurve& a,
                                  const PwlCurve& cap) {
  return tighten_lower_bound(curve_min(ladderref::curve_compose(g, a), cap));
}

TEST(CurveKernelDifferential, ComposeCappedMaxMatchesChain) {
  constexpr int kCases = 3000;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0xC0A9u + static_cast<std::uint64_t>(seed));
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::vector<Hinge> hinges;
    const int n = rng.uniform_int(1, 6);
    for (int i = 0; i < n; ++i) {
      hinges.push_back({rng.uniform(0.0, 3.0), rng.uniform(-2.0, 4.0)});
    }
    const HingeEnvelope g(hinges);
    const int a_families[] = {kWiggle, kJumpDense, kRampJump};
    const int cap_families[] = {kSteps, kRampJump, kBurst};
    const PwlCurve a = seed % 4 == 0
                           ? lattice_curve(rng)
                           : full_horizon_curve(rng, a_families[seed % 3]);
    const PwlCurve cap = full_horizon_curve(rng, cap_families[(seed / 3) % 3]);
    const PwlCurve fused = curve_compose_capped_max(g, a, cap);
    const PwlCurve chain = compose_capped_max_chain(g, a, cap);
    ASSERT_TRUE(fused.check_invariants());
    EXPECT_LE(fused.max_abs_difference(chain), kFusedTol)
        << "fused " << fused << "\nchain " << chain;
  }
}

// ---------------------------------------------------------------------------
// flat_eval_sweep: bit for bit flat_eval_both at every instant of a sorted
// grid, on grids built to hit every branch of the ladder -- instants <= 0,
// exactly on knots, within +-1e-9 of a knot on either side (several of them
// time_eq to one knot), past the last knot, duplicates -- and on grids that
// hold none of the curve's knots.

/// The sweep's (left, right) at every instant of `grid`.
std::vector<std::pair<double, double>> sweep_values(
    const CurveView& v, const std::vector<Time>& grid) {
  std::vector<std::pair<double, double>> out(grid.size());
  std::size_t expected = 0;
  flat_eval_sweep(v, grid.data(), grid.size(),
                  [&](std::size_t k, double left, double right) {
                    EXPECT_EQ(k, expected++);  // every instant, in order
                    out[k] = {left, right};
                  });
  EXPECT_EQ(expected, grid.size());
  return out;
}

void expect_sweep_matches_ladder(const CurveView& v,
                                 const std::vector<Time>& grid) {
  ASSERT_TRUE(std::is_sorted(grid.begin(), grid.end()));
  const std::vector<std::pair<double, double>> got = sweep_values(v, grid);
  SegmentCursor cur(v);
  for (std::size_t k = 0; k < grid.size(); ++k) {
    double left = 0.0;
    double right = 0.0;
    flat_eval_both(v, grid[k], cur, left, right);
    EXPECT_BITEQ(got[k].first, left) << "left at t=" << grid[k];
    EXPECT_BITEQ(got[k].second, right) << "right at t=" << grid[k];
  }
}

/// Adversarial sorted grid around the knots of `c`.
std::vector<Time> knot_grid(const PwlCurve& c, Rng& rng) {
  std::vector<Time> ts = {-2.0, -1e-12, 0.0, 0.0, 4e-10, 1e-9};
  const CurveView v = c.view();
  for (std::size_t i = 0; i < v.n; ++i) {
    const Time t = v.t[i];
    ts.push_back(t);
    // Inside, at and just outside the time tolerance, on both sides; the
    // +-4e-10 pair puts two grid points time_eq to one knot.
    for (const double d : {4e-10, 9.99e-10, 1e-9, 1.001e-9, 1e-6}) {
      ts.push_back(t - d);
      ts.push_back(t + d);
    }
    if (i + 1 < v.n) {
      ts.push_back(0.5 * (t + v.t[i + 1]));
      ts.push_back(rng.uniform(t, v.t[i + 1]));
    }
  }
  const Time end = v.t[v.n - 1];
  for (const Time t : {end + 2e-10, end + 1.0, end + 1.0, end + 5.0}) {
    ts.push_back(t);
  }
  for (int i = 0; i < 6; ++i) ts.push_back(rng.uniform(-0.5, end + 0.5));
  std::sort(ts.begin(), ts.end());
  return ts;
}

/// Sorted uniform draws strictly inside the segments, away from every knot.
std::vector<Time> off_knot_grid(const PwlCurve& c, Rng& rng) {
  std::vector<Time> ts;
  const CurveView v = c.view();
  for (std::size_t i = 0; i + 1 < v.n; ++i) {
    const Time span = v.t[i + 1] - v.t[i];
    if (span < 1e-6) continue;
    for (int j = rng.uniform_int(0, 4); j > 0; --j) {
      ts.push_back(v.t[i] + span * rng.uniform(0.01, 0.99));
    }
  }
  std::sort(ts.begin(), ts.end());
  return ts;
}

TEST(CurveEvalSweep, MatchesFlatEvalBothBitwise) {
  constexpr int kCases = 3500;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0x5EE9u + static_cast<std::uint64_t>(seed));
    const int family = seed % kFamilyCount;
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed) + " family=" +
                 family_name(family));
    const PwlCurve c{make_raw(rng, family)};
    expect_sweep_matches_ladder(c.view(), knot_grid(c, rng));
    expect_sweep_matches_ladder(c.view(), off_knot_grid(c, rng));
  }
}

TEST(CurveEvalSweep, DegenerateCurvesAndGrids) {
  Rng rng(7);
  const PwlCurve one_knot({{0.0, 2.5, 2.5}});
  ASSERT_EQ(one_knot.knot_count(), 1u);
  expect_sweep_matches_ladder(one_knot.view(), knot_grid(one_knot, rng));
  expect_sweep_matches_ladder(one_knot.view(), {-1.0, 0.0, 0.0, 3.0, 3.0});

  const PwlCurve ramp({{0.0, 0.0, 0.0}, {2.0, 1.0, 3.0}, {kH, 4.0, 4.0}});
  expect_sweep_matches_ladder(ramp.view(), {});
  // No knot of the curve on the grid, all instants strictly inside.
  expect_sweep_matches_ladder(ramp.view(),
                              {0.5, 0.5, 1.0, 1.9, 2.1, 7.0, 9.5});
  // Two instants time_eq to the middle knot from either side, then the
  // horizon approached from below inside the tolerance, and past it.
  expect_sweep_matches_ladder(ramp.view(), {2.0 - 5e-10, 2.0 + 5e-10,
                                            kH - 5e-10, kH, kH + 5e-10, 11.0});
  const std::vector<std::pair<double, double>> inside =
      sweep_values(ramp.view(), {1.0, 6.0});
  EXPECT_BITEQ(inside[0].first, 0.5);
  EXPECT_BITEQ(inside[1].second, 3.5);
}

// The exact-knot class: an instant bitwise equal to an interior knot t_i
// (1 <= i <= n - 2) takes (l[i], r[i]) without the ladder, while t_0,
// t_{n-1} and instants near a knot still take the ladder. The grids below
// hold knots exactly, so the two paths meet at every one of them.

/// The sorted knot times of the curves, each knot once per curve.
std::vector<Time> knots_of(std::initializer_list<const PwlCurve*> curves) {
  std::vector<Time> ts;
  for (const PwlCurve* c : curves) {
    const CurveView v = c->view();
    ts.insert(ts.end(), v.t, v.t + v.n);
  }
  std::sort(ts.begin(), ts.end());
  return ts;
}

/// The knot vector with every abscissa multiplied by `scale`.
std::vector<Knot> scaled(std::vector<Knot> ks, double scale) {
  for (Knot& k : ks) k.t *= scale;
  return ks;
}

TEST(CurveEvalSweep, ExactKnotGridsAcrossMagnitudes) {
  // Horizons from 1e-6 to 1e7: the absolute tolerance dominates at the low
  // end, the relative one at the high end.
  for (const double scale : {1e-7, 1e-6, 1e-3, 1.0, 1e3, 1e6}) {
    for (int seed = 0; seed < 300; ++seed) {
      Rng rng(0xE4AC7u + static_cast<std::uint64_t>(seed));
      const int family = seed % kFamilyCount;
      SCOPED_TRACE("scale=" + std::to_string(scale) + " seed=" +
                   std::to_string(seed) + " family=" + family_name(family));
      const PwlCurve c{scaled(make_raw(rng, family), scale)};
      const PwlCurve d{scaled(make_raw(rng, family + 3), scale)};
      // Each curve's own knots, then the undeduplicated union of both (a
      // merged grid before its time_eq pass, exact duplicates included).
      expect_sweep_matches_ladder(c.view(), knots_of({&c}));
      expect_sweep_matches_ladder(c.view(), knots_of({&c, &c}));
      const std::vector<Time> both = knots_of({&c, &d});
      expect_sweep_matches_ladder(c.view(), both);
      expect_sweep_matches_ladder(d.view(), both);
    }
  }
}

/// The least instant above t that is not time_eq to t.
Time first_apart(Time t) {
  Time u = t + time_tolerance(t, t);
  while (time_eq(t, u)) u = std::nextafter(u, kTimeInfinity);
  return u;
}

TEST(CurveEvalSweep, KnotsJustOverOneToleranceApart) {
  for (const Time base : {1e-6, 0.75, 3.0, 1e5, 1e7}) {
    SCOPED_TRACE("base=" + std::to_string(base));
    Rng rng(static_cast<std::uint64_t>(base * 8.0) + 1);
    std::vector<Knot> ks = {{0.0, 0.0, 0.0}};
    Time t = base;
    double level = 0.0;
    for (int j = 0; j < 6; ++j) {  // a jump at each knot keeps all of them
      const double left = level + rng.uniform(-1.0, 1.0);
      level = left + rng.uniform(0.5, 2.0);
      ks.push_back({t, left, level});
      t = first_apart(t);
    }
    ks.push_back({2.0 * base + 1.0, level, level});
    const PwlCurve c{ks};
    ASSERT_EQ(c.knot_count(), ks.size());
    // Every knot exactly and one ulp to either side, and the midpoints,
    // which are time_eq to both of their knots.
    std::vector<Time> grid;
    const CurveView v = c.view();
    for (std::size_t i = 0; i < v.n; ++i) {
      grid.push_back(v.t[i]);
      grid.push_back(std::nextafter(v.t[i], -kTimeInfinity));
      grid.push_back(std::nextafter(v.t[i], kTimeInfinity));
      if (i + 1 < v.n) grid.push_back(0.5 * (v.t[i] + v.t[i + 1]));
    }
    std::sort(grid.begin(), grid.end());
    expect_sweep_matches_ladder(v, grid);
    expect_sweep_matches_ladder(v, knots_of({&c}));
  }
}

TEST(CurveEvalSweep, TwoKnotCurvesHaveNoInteriorKnot) {
  for (const Time end : {1e-6, 1.0, kH, 1e7}) {
    SCOPED_TRACE("end=" + std::to_string(end));
    const PwlCurve c({{0.0, 1.0, 1.0}, {end, 3.0, 5.0}});
    ASSERT_EQ(c.knot_count(), 2u);
    expect_sweep_matches_ladder(c.view(), knots_of({&c, &c}));
    expect_sweep_matches_ladder(
        c.view(), {-1.0, 0.0, 0.0, 0.5 * end, end, end, 2.0 * end});
  }
}

TEST(CurveEvalSweep, FirstAndLastKnotTakeTheLadder) {
  // Raw views whose first left limit is not pinned to its right value (as
  // finalize would pin it): at t_0 the ladder answers r[0] on both sides,
  // so an exact-knot shortcut there would show. At t_{n-1} the ladder's
  // answer is (l[n-1], r[n-1]), which for n = 1 is t_0 again.
  const double t[] = {0.0, 2.0, 5.0, kH};
  const double l[] = {-7.0, 1.0, 2.0, 4.0};
  const double r[] = {3.0, 1.5, 2.0, 6.0};
  for (const std::size_t n : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const CurveView v{t, l, r, n};
    std::vector<Time> grid = {-1.0, 0.0, 0.0};
    for (std::size_t i = 1; i < n; ++i) grid.insert(grid.end(), 2, t[i]);
    grid.push_back(t[n - 1] + 1.0);
    expect_sweep_matches_ladder(v, grid);
    const std::vector<std::pair<double, double>> at_zero =
        sweep_values(v, {0.0});
    EXPECT_BITEQ(at_zero[0].first, 3.0);
    EXPECT_BITEQ(at_zero[0].second, 3.0);
  }
}

// ---------------------------------------------------------------------------
// The grid kernels against their per-point ladder references
// (support/curve_reference.hpp, namespace ladderref): curve_sum,
// curve_available, curve_min_of_sums and curve_compose_capped_max must
// build identical curves, bit for bit, on random operands whose knots nearly
// tie, and with the S̄/S̲ curves of analyzed shops as higher-priority
// operands.

/// A curve on [0, kH] whose interior knots sit within +-2e-9 of base's
/// (inside and just outside the time tolerance), with fresh values.
PwlCurve near_tie_curve(Rng& rng, const PwlCurve& base) {
  std::vector<Knot> ks;
  double v = rng.uniform(-1.0, 1.0);
  ks.push_back({0.0, v, v});
  const CurveView b = base.view();
  for (std::size_t i = 1; i < b.n; ++i) {
    const Time t = b.t[i] + rng.uniform(-2e-9, 2e-9);
    if (t <= ks.back().t || t >= kH) continue;
    const double left = v + rng.uniform(-1.0, 1.5);
    v = rng.uniform_int(0, 2) == 0 ? left + rng.uniform(-0.5, 1.0) : left;
    ks.push_back({t, left, v});
  }
  ks.push_back({kH, v, v});
  return PwlCurve(std::move(ks));
}

void expect_same_curve(const PwlCurve& got, const PwlCurve& ref) {
  EXPECT_TRUE(curves_identical(got, ref)) << "kernel " << got << "\nladder "
                                          << ref;
}

TEST(CurveKernelLadderPins, RandomOperandsWithNearTieKnots) {
  constexpr int kCases = 1500;
  const int families[] = {kSteps,      kBurst,     kRampJump, kDegenerate,
                          kHorizonEdge, kJumpDense, kWiggle};
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0x1ADDu + static_cast<std::uint64_t>(seed));
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    const int count = rng.uniform_int(1, 6);
    std::vector<PwlCurve> ops;
    for (int i = 0; i < count; ++i) {
      if (i > 0 && rng.uniform_int(0, 1) == 0) {
        ops.push_back(near_tie_curve(rng, ops[static_cast<std::size_t>(
                                              rng.uniform_int(0, i - 1))]));
      } else {
        ops.push_back(full_horizon_curve(rng, families[rng.uniform_int(0, 6)]));
      }
    }
    const PwlCurve base = rng.uniform_int(0, 1) == 0
                              ? PwlCurve::identity(kH)
                              : near_tie_curve(rng, ops[0]);
    const double offset = rng.uniform(-1.0, 1.0);
    expect_same_curve(curve_sum(ops, kH), ladderref::curve_sum(ops, kH));
    expect_same_curve(curve_available(base, ops, offset),
                     ladderref::curve_available(base, ops, offset));

    std::vector<SumTerm> terms;
    for (std::size_t k = 0; k + 1 < ops.size(); k += 2) {
      terms.push_back({&ops[k], &ops[k + 1], rng.uniform(-1.0, 1.0)});
    }
    terms.push_back({&ops.back(), nullptr, 0.0});
    terms.push_back({&base});
    expect_same_curve(curve_min_of_sums(terms),
                     ladderref::curve_min_of_sums(terms));

    std::vector<Hinge> hinges;
    for (int i = rng.uniform_int(1, 6); i > 0; --i) {
      hinges.push_back({rng.uniform(0.0, 3.0), rng.uniform(-2.0, 4.0)});
    }
    const HingeEnvelope g(hinges);
    expect_same_curve(curve_compose_capped_max(g, ops[0], ops.back()),
                     ladderref::curve_compose_capped_max(g, ops[0],
                                                         ops.back()));
  }
}

TEST(CurveKernelLadderPins, RecordedServiceBoundsAsHpOperands) {
  AnalysisConfig config;
  config.record_curves = true;
  const BoundsAnalyzer analyzer(config);
  int checked = 0;
  for (const SchedulerKind kind :
       {SchedulerKind::kSpp, SchedulerKind::kSpnp, SchedulerKind::kFcfs}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(to_string(kind)) + " seed=" +
                   std::to_string(seed));
      JobShopConfig cfg;
      cfg.stages = 3;
      cfg.processors_per_stage = 1 + seed % 2;
      cfg.jobs = 6;
      cfg.pattern = seed % 3 == 0 ? ArrivalPattern::kAperiodic
                                  : ArrivalPattern::kPeriodic;
      cfg.utilization = seed % 4 == 0 ? 0.95 : 0.8;
      cfg.scheduler = kind;
      Rng rng(seed);
      System system = generate_jobshop(cfg, rng);
      assign_proportional_deadline_monotonic(system);
      const AnalysisResult r = analyzer.analyze(system);
      ASSERT_TRUE(r.ok);
      std::vector<PwlCurve> uppers;
      std::vector<PwlCurve> lowers;
      for (const JobReport& job : r.jobs) {
        for (const SubjobReport& hop : job.hops) {
          ASSERT_EQ(hop.curves.size(), 1u);
          uppers.push_back(hop.curves[0].service_upper);
          lowers.push_back(hop.curves[0].service_lower);
        }
      }
      const PwlCurve ident = PwlCurve::identity(r.horizon);
      const double b = rng.uniform(0.0, 1.0);
      // Every prefix of the recorded curves is one higher-priority set.
      for (std::size_t k = 1; k <= uppers.size(); ++k) {
        const std::vector<PwlCurve> hp_upper(uppers.begin(),
                                             uppers.begin() + k);
        const std::vector<PwlCurve> hp_lower(lowers.begin(),
                                             lowers.begin() + k);
        expect_same_curve(curve_available(ident, hp_upper, -b),
                         ladderref::curve_available(ident, hp_upper, -b));
        expect_same_curve(curve_available(ident, hp_lower),
                         ladderref::curve_available(ident, hp_lower));
        expect_same_curve(curve_sum(hp_upper, r.horizon),
                         ladderref::curve_sum(hp_upper, r.horizon));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 300);
}

// ---------------------------------------------------------------------------
// PinvSweep: bit for bit the per-level pseudo_inverse, on nondecreasing
// curves with flat runs and jumps, at levels that include 0, every knot's
// value and its tolerance band, jump interiors and the epsilon band above
// the end value.

/// A nondecreasing curve mixing flat runs, ramps and jumps.
PwlCurve flat_run_curve(Rng& rng) {
  std::vector<Knot> ks;
  double v = rng.uniform_int(0, 2) == 0 ? 0.0 : rng.uniform(0.0, 1.0);
  ks.push_back({0.0, v, v});
  Time t = 0.0;
  while (true) {
    t += rng.uniform(0.3, 2.0);
    if (t >= kH) break;
    const int kind = rng.uniform_int(0, 2);
    const double left = kind == 0 ? v : v + rng.uniform(0.0, 1.5);  // flat
    const double right = kind == 2 ? left + rng.uniform(0.1, 1.0) : left;
    ks.push_back({t, left, right});
    v = right;
  }
  ks.push_back({kH, v, v});
  return PwlCurve(std::move(ks));
}

std::vector<double> sweep_levels(const PwlCurve& c, Rng& rng) {
  const double end = c.end_value();
  std::vector<double> levels = {0.0,         -1.0,        end,
                                end + 5e-8,  end + 1e-7,  end + 1.5e-7,
                                end + 0.5};
  const CurveView v = c.view();
  for (std::size_t i = 0; i < v.n; ++i) {
    levels.push_back(v.r[i]);
    levels.push_back(v.r[i] - 5e-8);
    levels.push_back(v.r[i] + 5e-8);
    levels.push_back(0.5 * (v.l[i] + v.r[i]));
    if (i + 1 < v.n) levels.push_back(0.5 * (v.r[i] + v.l[i + 1]));
  }
  for (int i = 0; i < 8; ++i) levels.push_back(rng.uniform(-0.5, end + 0.5));
  for (int k = 1; k <= static_cast<int>(end) + 1; ++k) levels.push_back(k);
  return levels;
}

TEST(CurveKernelDifferential, PinvSweepMatchesPerLevelPseudoInverse) {
  constexpr int kCases = 4000;
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0x5EE9u + static_cast<std::uint64_t>(seed));
    const int family = seed % 4;  // kSteps, kBurst, kRampJump, flat runs
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed) + " family=" +
                 (family == 3 ? "flat_runs" : family_name(family)));
    const PwlCurve c = family == 3 ? flat_run_curve(rng)
                                   : PwlCurve(make_raw(rng, family));
    ASSERT_TRUE(c.is_nondecreasing());
    std::vector<double> levels = sweep_levels(c, rng);
    std::sort(levels.begin(), levels.end());
    PinvSweep sweep(c);
    for (double y : levels) {
      EXPECT_BITEQ(sweep.next(y), c.pseudo_inverse(y)) << "y=" << y;
    }
    // Out-of-order queries walk back and stay exact.
    std::reverse(levels.begin(), levels.end());
    std::swap(levels.front(), levels[levels.size() / 2]);
    PinvSweep unordered(c);
    for (double y : levels) {
      EXPECT_BITEQ(unordered.next(y), c.pseudo_inverse(y)) << "y=" << y;
    }
  }
}

// ---------------------------------------------------------------------------
// Lemma 2 in closed form: the jump-list construction is exactly the
// pointwise min of the crossing counts and the shifted arrival curve.

/// Counting curve with unit arrivals on a 0.25 grid (exact sums with the
/// dyadic taus below, so ties with shifted arrivals are exact), plus
/// arrivals at 0, on the horizon and at or just inside horizon - tau.
PwlCurve arrival_counts(Rng& rng, Time tau) {
  std::vector<Time> times;
  const int n = rng.uniform_int(0, 14);
  for (int i = 0; i < n; ++i) {
    times.push_back(0.25 * rng.uniform_int(0, static_cast<int>(4 * kH)));
  }
  const int extra = rng.uniform_int(0, 5);
  if (extra == 1) times.push_back(0.0);
  if (extra == 2) times.push_back(kH - tau);
  if (extra == 3) times.push_back(kH - tau - 5e-10);
  if (extra == 4) times.push_back(kH - tau - 1e-6);
  if (extra == 5) times.push_back(kH - tau + 1e-6);
  std::erase_if(times, [](Time t) { return t < 0.0; });
  std::sort(times.begin(), times.end());
  return PwlCurve::step(kH, times);
}

/// A service-like curve for the crossing counts: steps of height tau on
/// the same grid (crossings tie with the shifted arrivals), a monotone ramp
/// with jumps, or a non-monotone wiggle.
PwlCurve crossing_source(Rng& rng, Time tau, int kind) {
  if (kind == 0) {
    std::vector<Time> times;
    const int n = rng.uniform_int(0, 14);
    for (int i = 0; i < n; ++i) {
      times.push_back(0.25 * rng.uniform_int(0, static_cast<int>(4 * kH)));
    }
    std::sort(times.begin(), times.end());
    return PwlCurve::step(kH, times, tau);
  }
  const PwlCurve c = full_horizon_curve(rng, kind == 1 ? kRampJump : kWiggle);
  return curve_scale(c, tau);
}

TEST(CurveKernelDifferential, CrossingCountsMinShiftMatchesPointwiseMin) {
  constexpr int kCases = 4000;
  const Time taus[] = {0.25, 0.5, 1.0, 2.5, kH, kH + 1.0};
  for (int seed = 0; seed < kCases; ++seed) {
    Rng rng(0x1E2Au + static_cast<std::uint64_t>(seed));
    const Time tau = taus[seed % 6];
    const int kind = (seed / 6) % 3;
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed) +
                 " tau=" + std::to_string(tau) + " kind=" +
                 std::to_string(kind));
    const PwlCurve a = arrival_counts(rng, tau);
    const PwlCurve s = crossing_source(rng, tau, kind);
    const PwlCurve closed = curve_crossing_counts_min_shift(s, a, tau);
    const PwlCurve chain = curve_min(oracle::crossing_counts_per_level(s, tau),
                                     curve_shift_right(a, tau));
    EXPECT_TRUE(curves_identical(closed, chain))
        << "a " << a << "\ns " << s << "\nclosed " << closed << "\nchain "
        << chain;
  }
}

TEST(CurveKernelDifferential, CrossingCountsMinShiftHoldsArrivalsAtZero) {
  // Two arrivals at t = 0 stay at 0 in the shifted curve (it holds a(0) on
  // [0, tau)); the crossings then bind the first two jumps.
  const PwlCurve a = PwlCurve::step(kH, {0.0, 0.0, 3.0});
  const PwlCurve s = PwlCurve::identity(kH);
  const PwlCurve closed = curve_crossing_counts_min_shift(s, a, 2.0);
  EXPECT_TRUE(curves_identical(
      closed, curve_min(oracle::crossing_counts_per_level(s, 2.0),
                        curve_shift_right(a, 2.0))));
  EXPECT_DOUBLE_EQ(closed.pseudo_inverse(1.0), 2.0);
  EXPECT_DOUBLE_EQ(closed.pseudo_inverse(2.0), 4.0);
  EXPECT_DOUBLE_EQ(closed.pseudo_inverse(3.0), 6.0);
  EXPECT_DOUBLE_EQ(closed.end_value(), 3.0);
}

TEST(CurveKernelDifferential, CrossingCountsMinShiftTakesEarlierOfTimeEqJumps) {
  // The k-th crossing and the k-th shifted arrival lie 5e-10 apart, inside
  // the time tolerance, in either order: the merged grid keeps the earlier
  // instant, and so must the closed form.
  for (const double skew : {5e-10, -5e-10}) {
    SCOPED_TRACE("skew=" + std::to_string(skew));
    const PwlCurve s = PwlCurve::step(kH, {4.0, 7.0 + skew}, 1.0);
    const PwlCurve a = PwlCurve::step(kH, {3.0 - skew, 6.0});
    const PwlCurve closed = curve_crossing_counts_min_shift(s, a, 1.0);
    EXPECT_TRUE(curves_identical(
        closed, curve_min(oracle::crossing_counts_per_level(s, 1.0),
                          curve_shift_right(a, 1.0))))
        << closed;
    EXPECT_BITEQ(closed.knot_time(1), std::min(4.0, 4.0 - skew));
    EXPECT_BITEQ(closed.knot_time(2), std::min(7.0, 7.0 + skew));
  }
}

}  // namespace
}  // namespace rta
