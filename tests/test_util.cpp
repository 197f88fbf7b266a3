// Unit tests for util/: tolerant time arithmetic, RNG streams, statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "support/stats.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace rta {
namespace {

TEST(TimeTolerance, EqualityWithinEpsilon) {
  EXPECT_TRUE(time_eq(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(time_eq(1.0, 1.0 - 1e-12));
  EXPECT_FALSE(time_eq(1.0, 1.0 + 1e-6));
  EXPECT_TRUE(time_eq(0.0, 0.0));
  EXPECT_TRUE(time_eq(1e9, 1e9 * (1.0 + 1e-13)));
}

TEST(TimeTolerance, StrictOrderRespectsEpsilon) {
  EXPECT_TRUE(time_lt(1.0, 2.0));
  EXPECT_FALSE(time_lt(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(time_le(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(time_ge(1.0 + 1e-12, 1.0));
  EXPECT_FALSE(time_gt(1.0 + 1e-12, 1.0));
}

TEST(TimeTolerance, InfinityHandling) {
  EXPECT_TRUE(time_eq(kTimeInfinity, kTimeInfinity));
  EXPECT_FALSE(time_eq(kTimeInfinity, 1.0));
  EXPECT_TRUE(time_lt(1.0, kTimeInfinity));
}

TEST(TimeTolerance, OrderedCompareMatchesTimeEqOnItsDomain) {
  // For each a >= 0: b at and around a, then one ulp either side of the
  // last b that time_eq accepts.
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const double a : {0.0, denorm, 1e-310, 1e-300, 1e-9, 0.5, 1.0, 3.0,
                         1e7, 1e300}) {
    SCOPED_TRACE(testing::Message() << "a=" << a);
    Time last = a + time_tolerance(a, a);
    while (!time_eq(a, last)) last = std::nextafter(last, 0.0);
    while (time_eq(a, std::nextafter(last, kTimeInfinity))) {
      last = std::nextafter(last, kTimeInfinity);
    }
    const Time past = std::nextafter(last, kTimeInfinity);
    EXPECT_TRUE(time_eq_ordered(a, last));
    EXPECT_FALSE(time_eq_ordered(a, past));
    for (const double b : {a, std::nextafter(a, kTimeInfinity), 2.0 * a,
                           std::nextafter(last, 0.0), last, past,
                           std::nextafter(past, kTimeInfinity)}) {
      EXPECT_EQ(time_eq_ordered(a, b), time_eq(a, b)) << "b=" << b;
    }
    // a just above b, inside the tolerance, is in the domain too.
    if (a > 0.0) {
      const double below = std::nextafter(a, 0.0);
      EXPECT_TRUE(time_eq_ordered(a, below));
      EXPECT_EQ(time_eq_ordered(a, below), time_eq(a, below));
    }
  }
}

TEST(TolerantFloor, CountsEpsilonBelowInteger) {
  EXPECT_EQ(tolerant_floor(3.0), 3);
  EXPECT_EQ(tolerant_floor(2.9999999996), 3);
  EXPECT_EQ(tolerant_floor(2.9), 2);
  EXPECT_EQ(tolerant_floor(-0.0000000001), 0);
  EXPECT_EQ(tolerant_floor(-1.0000000001), -1);
}

TEST(TolerantCeil, IgnoresEpsilonAboveInteger) {
  EXPECT_EQ(tolerant_ceil(3.0), 3);
  EXPECT_EQ(tolerant_ceil(3.0000000004), 3);
  EXPECT_EQ(tolerant_ceil(3.1), 4);
}

TEST(ClampNonnegative, OnlyClampsNoise) {
  EXPECT_EQ(clamp_nonnegative(-1e-12), 0.0);
  EXPECT_EQ(clamp_nonnegative(-1.0), -1.0);
  EXPECT_EQ(clamp_nonnegative(2.0), 2.0);
}

TEST(Rng, StreamsAreDeterministic) {
  RngFactory f(123);
  Rng a = f.stream(7);
  Rng b = f.stream(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, StreamsAreIndependentAcrossIndices) {
  RngFactory f(123);
  Rng a = f.stream(1);
  Rng b = f.stream(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformOpenAvoidsEndpoints) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_open(0.0, 1.0);
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GammaMeanVarianceMatchMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gamma_mean_var(4.0, 8.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
  EXPECT_NEAR(stats.variance(), 8.0, 0.4);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const double xs[] = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_NEAR(s.variance(), 12.5, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Quantile, InterpolatesLinearly) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(WilsonHalfWidth, ShrinksWithTrials) {
  const double w100 = wilson_half_width(50, 100);
  const double w10000 = wilson_half_width(5000, 10000);
  EXPECT_GT(w100, w10000);
  EXPECT_GT(w100, 0.0);
  EXPECT_LT(w100, 0.15);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  pool.parallel_for_index(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesEmptyAndSingle) {
  ThreadPool pool(2);
  pool.parallel_for_index(0, [](std::size_t) { FAIL(); });
  std::atomic<int> n{0};
  pool.parallel_for_index(1, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, ManyMoreTasksThanWorkers) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  pool.parallel_for_index(10000, [&](std::size_t i) {
    sum += static_cast<long long>(i);
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

}  // namespace
}  // namespace rta
