// Tests for the job-shop workload generator (§5.1, Eqs. 25-28).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/order.hpp"
#include "model/priority.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

JobShopConfig base_config() {
  JobShopConfig cfg;
  cfg.stages = 4;
  cfg.processors_per_stage = 2;
  cfg.jobs = 6;
  cfg.utilization = 0.5;
  cfg.window_periods = 6.0;
  cfg.min_rate = 0.1;
  return cfg;
}

TEST(JobShop, StructureMatchesConfig) {
  Rng rng(1);
  const System sys = generate_jobshop(base_config(), rng);
  EXPECT_EQ(sys.processor_count(), 8);
  EXPECT_EQ(sys.job_count(), 6);
  for (int k = 0; k < sys.job_count(); ++k) {
    const Job& j = sys.job(k);
    ASSERT_EQ(j.chain.size(), 4u);
    for (std::size_t s = 0; s < 4; ++s) {
      // Stage s uses processors [2s, 2s+1].
      EXPECT_GE(j.chain[s].processor, static_cast<int>(2 * s));
      EXPECT_LE(j.chain[s].processor, static_cast<int>(2 * s + 1));
      EXPECT_GT(j.chain[s].exec_time, 0.0);
    }
  }
}

TEST(JobShop, ValidAfterPriorityAssignment) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    System sys = generate_jobshop(base_config(), rng);
    assign_proportional_deadline_monotonic(sys);
    EXPECT_TRUE(sys.validate().empty()) << "seed " << seed;
    EXPECT_TRUE(dependency_order(sys).has_value()) << "seed " << seed;
  }
}

TEST(JobShop, PeriodicArrivalsFollowEq25) {
  Rng rng(2);
  JobShopConfig cfg = base_config();
  cfg.pattern = ArrivalPattern::kPeriodic;
  const System sys = generate_jobshop(cfg, rng);
  for (int k = 0; k < sys.job_count(); ++k) {
    const auto& rel = sys.job(k).arrivals.releases();
    ASSERT_GE(rel.size(), 2u);
    EXPECT_DOUBLE_EQ(rel[0], 0.0);
    const double period = rel[1] - rel[0];
    for (std::size_t i = 2; i < rel.size(); ++i) {
      EXPECT_NEAR(rel[i] - rel[i - 1], period, 1e-9);
    }
    // Deadline = multiple * period.
    EXPECT_NEAR(sys.job(k).deadline, cfg.deadline.period_multiple * period,
                1e-9);
  }
}

TEST(JobShop, AperiodicArrivalsFollowEq27) {
  Rng rng(3);
  JobShopConfig cfg = base_config();
  cfg.pattern = ArrivalPattern::kAperiodic;
  const System sys = generate_jobshop(cfg, rng);
  for (int k = 0; k < sys.job_count(); ++k) {
    const auto& rel = sys.job(k).arrivals.releases();
    ASSERT_GE(rel.size(), 3u);
    EXPECT_NEAR(rel[0], 0.0, 1e-12);
    // Gaps grow towards the asymptotic period.
    EXPECT_LT(rel[1] - rel[0], rel.back() - rel[rel.size() - 2] + 1e-9);
    EXPECT_GT(sys.job(k).deadline, 0.0);
  }
}

TEST(JobShop, ExecutionTimesFollowEq26Normalization) {
  // Per Eq. 26, the per-processor sum of tau_{l,i} * x_l equals
  // Utilization * sum(w) / sum(w/x) * sum(w/x)... more directly: the sum of
  // w_{l,i}/x_l-weighted taus over a processor is Utilization * that
  // processor's denominator share. Verify the per-processor identity
  // sum_l tau_l = U * sum_l w_l (1/x_l) / denom * denom / ... by checking
  // the generator-level invariant: sum over subjobs on p of tau equals U
  // times (sum of w/x on p) / (sum of w/x on p) ... = U * 1 in weighted
  // form. We check the direct consequence: scaling U scales every tau
  // linearly.
  JobShopConfig cfg = base_config();
  cfg.utilization = 0.4;
  Rng rng_a(7);
  const System a = generate_jobshop(cfg, rng_a);
  cfg.utilization = 0.8;
  Rng rng_b(7);
  const System b = generate_jobshop(cfg, rng_b);
  for (int k = 0; k < a.job_count(); ++k) {
    for (std::size_t h = 0; h < a.job(k).chain.size(); ++h) {
      EXPECT_NEAR(b.job(k).chain[h].exec_time,
                  2.0 * a.job(k).chain[h].exec_time, 1e-9);
    }
    // Same structure across the sweep (same draws).
    EXPECT_EQ(a.job(k).chain[0].processor, b.job(k).chain[0].processor);
  }
}

TEST(JobShop, PerProcessorWeightedUtilizationIdentity) {
  // Eq. 26 identity: for each processor p,
  //   sum_{P(l,i)=p} tau_{l,i} = Utilization * sum_{P(l,i)=p} w (1/x) /
  //                              denom(p) = Utilization
  // since denom(p) = sum w (1/x) over p. I.e. the taus on each processor sum
  // to exactly the utilization knob.
  Rng rng(11);
  JobShopConfig cfg = base_config();
  cfg.utilization = 0.6;
  const System sys = generate_jobshop(cfg, rng);
  for (int p = 0; p < sys.processor_count(); ++p) {
    double total = 0.0;
    for (const SubjobRef& ref : sys.subjobs_on(p)) {
      total += sys.subjob(ref).exec_time;
    }
    if (sys.subjobs_on(p).empty()) continue;
    EXPECT_NEAR(total, 0.6, 1e-9) << "processor " << p;
  }
}

TEST(JobShop, WindowCoversConfiguredPeriods) {
  Rng rng(5);
  JobShopConfig cfg = base_config();
  cfg.window_periods = 6.0;
  const System sys = generate_jobshop(cfg, rng);
  // Every job has at least window_periods instances of its own period...
  // at minimum the slowest job has ~window_periods instances.
  std::size_t min_count = 1000;
  for (int k = 0; k < sys.job_count(); ++k) {
    min_count = std::min(min_count, sys.job(k).arrivals.count());
  }
  EXPECT_GE(min_count, 6u);
}

TEST(JobShop, DeterministicGivenSeed) {
  Rng a(99), b(99);
  const System x = generate_jobshop(base_config(), a);
  const System y = generate_jobshop(base_config(), b);
  ASSERT_EQ(x.job_count(), y.job_count());
  for (int k = 0; k < x.job_count(); ++k) {
    EXPECT_EQ(x.job(k).arrivals.count(), y.job(k).arrivals.count());
    EXPECT_DOUBLE_EQ(x.job(k).deadline, y.job(k).deadline);
    for (std::size_t h = 0; h < x.job(k).chain.size(); ++h) {
      EXPECT_DOUBLE_EQ(x.job(k).chain[h].exec_time,
                       y.job(k).chain[h].exec_time);
    }
  }
}

TEST(JobShop, SchedulerKindApplied) {
  Rng rng(1);
  JobShopConfig cfg = base_config();
  cfg.scheduler = SchedulerKind::kFcfs;
  const System sys = generate_jobshop(cfg, rng);
  for (int p = 0; p < sys.processor_count(); ++p) {
    EXPECT_EQ(sys.scheduler(p), SchedulerKind::kFcfs);
  }
}

}  // namespace
}  // namespace rta
