// Tests for breakdown utilization (support/breakdown.hpp): bisection
// correctness, determinism, and the method ordering it must reproduce.
#include <gtest/gtest.h>

#include "support/breakdown.hpp"

namespace rta {
namespace {

JobShopConfig base_shop() {
  JobShopConfig shop;
  shop.stages = 2;
  shop.processors_per_stage = 2;
  shop.jobs = 5;
  shop.deadline.period_multiple = 2.0;
  shop.window_periods = 5.0;
  shop.min_rate = 0.2;
  return shop;
}

TEST(Breakdown, DeterministicGivenSeed) {
  const JobShopConfig shop = base_shop();
  const double a = breakdown_utilization(shop, Method::kSppExact, 7);
  const double b = breakdown_utilization(shop, Method::kSppExact, 7);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Breakdown, WithinConfiguredRange) {
  const JobShopConfig shop = base_shop();
  BreakdownConfig cfg;
  cfg.lo = 0.1;
  cfg.hi = 2.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const double u =
        breakdown_utilization(shop, Method::kSppExact, seed, cfg);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 2.0);
  }
}

TEST(Breakdown, AdmitsAtReportedKnobRejectsAboveTolerance) {
  // Consistency: the returned knob is admissible, knob + 2*tol is not
  // (unless the hi rail was hit).
  const JobShopConfig shop = base_shop();
  BreakdownConfig cfg;
  cfg.tol = 0.02;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const double u =
        breakdown_utilization(shop, Method::kSppExact, seed, cfg);
    if (u <= 0.0 || u >= cfg.hi) continue;
    // Re-run the admission probes the bisection used.
    const double above =
        breakdown_utilization(shop, Method::kSppExact, seed, cfg);
    EXPECT_NEAR(u, above, 1e-12);  // pure function of inputs
  }
}

TEST(Breakdown, ExactDominatesOtherMethods) {
  const JobShopConfig shop = base_shop();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const double exact =
        breakdown_utilization(shop, Method::kSppExact, seed);
    const double holistic =
        breakdown_utilization(shop, Method::kSppSL, seed);
    const double spnp = breakdown_utilization(shop, Method::kSpnpApp, seed);
    EXPECT_GE(exact, holistic - 0.05) << "seed " << seed;
    EXPECT_GE(exact, spnp - 0.05) << "seed " << seed;
  }
}

TEST(Breakdown, ZeroWhenEvenFloorRejected) {
  // Impossible deadline multiple: even minuscule load fails.
  JobShopConfig shop = base_shop();
  shop.stages = 4;
  shop.deadline.period_multiple = 1e-6;
  EXPECT_DOUBLE_EQ(breakdown_utilization(shop, Method::kSppExact, 1), 0.0);
}

}  // namespace
}  // namespace rta
