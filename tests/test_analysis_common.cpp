// Tests for shared analysis plumbing: automatic horizons, result helpers,
// and configuration behavior common to all analyzers.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/result.hpp"
#include "analysis/spp_exact.hpp"

namespace rta {
namespace {

System one_job_system(double deadline, Time window, double period) {
  System sys(1, SchedulerKind::kSpp);
  Job j;
  j.name = "A";
  j.deadline = deadline;
  j.chain = {{0, 0.5, 1}};
  j.arrivals = ArrivalSequence::periodic(period, window);
  sys.add_job(std::move(j));
  return sys;
}

TEST(DefaultHorizon, ExplicitHorizonWins) {
  AnalysisConfig cfg;
  cfg.horizon = 123.0;
  EXPECT_DOUBLE_EQ(default_horizon(one_job_system(5.0, 40.0, 4.0), cfg),
                   123.0);
}

TEST(DefaultHorizon, PadsByDeadlinesAndWindowFraction) {
  AnalysisConfig cfg;
  // window 40, deadline 5: padding = max(10, 20) = 20 -> 60.
  EXPECT_DOUBLE_EQ(default_horizon(one_job_system(5.0, 40.0, 4.0), cfg),
                   60.0);
  // Large deadline dominates: deadline 50 -> padding 100 -> 140.
  EXPECT_DOUBLE_EQ(default_horizon(one_job_system(50.0, 40.0, 4.0), cfg),
                   140.0);
}

TEST(DefaultHorizon, NeverBelowOne) {
  System sys(1, SchedulerKind::kSpp);
  Job j;
  j.name = "tiny";
  j.deadline = 1e-6;
  j.chain = {{0, 1e-7, 1}};
  j.arrivals = ArrivalSequence(std::vector<Time>{0.0});
  sys.add_job(std::move(j));
  AnalysisConfig cfg;
  EXPECT_GE(default_horizon(sys, cfg), 1.0);
}

TEST(AnalysisResult, AllSchedulableRequiresOkAndEveryJob) {
  AnalysisResult r;
  EXPECT_FALSE(r.all_schedulable());  // !ok
  r.ok = true;
  EXPECT_TRUE(r.all_schedulable());  // vacuously true with no jobs
  r.jobs.push_back({1.0, true, {}, {}});
  r.jobs.push_back({9.0, false, {}, {}});
  EXPECT_FALSE(r.all_schedulable());
  r.jobs[1].schedulable = true;
  EXPECT_TRUE(r.all_schedulable());
}

TEST(AnalysisResult, MaxWcrtSkipsNothing) {
  AnalysisResult r;
  r.ok = true;
  r.jobs.push_back({1.5, true, {}, {}});
  r.jobs.push_back({3.25, true, {}, {}});
  EXPECT_DOUBLE_EQ(r.max_wcrt(), 3.25);
  r.jobs.push_back({kTimeInfinity, false, {}, {}});
  EXPECT_TRUE(std::isinf(r.max_wcrt()));
}

TEST(AnalysisConfig, RecordCurvesDefaultsOff) {
  const System sys = one_job_system(5.0, 20.0, 4.0);
  const AnalysisResult r = ExactSppAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.jobs[0].hops[0].curves.empty());
}

TEST(AnalysisConfig, HorizonDoublingCapRespected) {
  // Overloaded system: with zero doublings the first horizon's verdict
  // stands (infinite wcrt); with more doublings the horizon grows but the
  // verdict stays unschedulable either way.
  System sys(1, SchedulerKind::kSpp);
  Job j;
  j.name = "over";
  j.deadline = 0.5;
  std::vector<Time> rel;
  for (int i = 0; i < 50; ++i) rel.push_back(0.4 * i);
  j.chain = {{0, 1.0, 1}};
  j.arrivals = ArrivalSequence(std::move(rel));
  sys.add_job(std::move(j));

  AnalysisConfig none;
  none.max_horizon_doublings = 0;
  const AnalysisResult r0 = ExactSppAnalyzer(none).analyze(sys);
  AnalysisConfig many;
  many.max_horizon_doublings = 4;
  const AnalysisResult r4 = ExactSppAnalyzer(many).analyze(sys);
  ASSERT_TRUE(r0.ok && r4.ok);
  EXPECT_FALSE(r0.all_schedulable());
  EXPECT_FALSE(r4.all_schedulable());
  EXPECT_GE(r4.horizon, r0.horizon);
}

}  // namespace
}  // namespace rta
