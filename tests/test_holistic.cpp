// Tests for the SPP/S&L holistic baseline: classical busy-period results,
// jitter propagation, and applicability restrictions.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/holistic.hpp"
#include "support/utilization.hpp"

namespace rta {
namespace {

Job periodic_job(const std::string& name, double period, double deadline,
                 std::vector<Subjob> chain, double window = 60.0) {
  Job j;
  j.name = name;
  j.deadline = deadline;
  j.chain = std::move(chain);
  j.arrivals = ArrivalSequence::periodic(period, window);
  return j;
}

TEST(JitteredResponse, ClassicRateMonotonicExample) {
  // Liu & Layland-style: C = (1, 2), T = (4, 6). R1 = 1; R2 = 1 + 2 = 3.
  const JitteredTask t1{4.0, 0.0, 1.0};
  const JitteredTask t2{6.0, 0.0, 2.0};
  EXPECT_DOUBLE_EQ(jittered_response_time(t1, {}, 1e6), 1.0);
  EXPECT_DOUBLE_EQ(jittered_response_time(t2, {t1}, 1e6), 3.0);
}

TEST(JitteredResponse, InterferenceWithMultipleHits) {
  // C = (2, 2), T = (4, 10): w = 2 + 2*ceil(w/4) has fixpoint w = 4 (the
  // second high-priority instance lands exactly at the completion instant
  // and does not interfere). With a slightly larger execution time the
  // second hit is taken: C_lo = 2.5 -> w = 2.5 + 2*ceil(w/4) -> w = 6.5.
  const JitteredTask hi{4.0, 0.0, 2.0};
  EXPECT_DOUBLE_EQ(jittered_response_time({10.0, 0.0, 2.0}, {hi}, 1e6), 4.0);
  EXPECT_DOUBLE_EQ(jittered_response_time({10.0, 0.0, 2.5}, {hi}, 1e6), 6.5);
}

TEST(JitteredResponse, JitterIncreasesInterference) {
  // Jitter on the high task can squeeze two activations into the window.
  const JitteredTask hi{4.0, 3.0, 2.0};
  const JitteredTask lo{20.0, 0.0, 1.0};
  // w = 1 + 2*ceil((w+3)/4): w=3 -> ceil(6/4)=2 -> w=5 -> ceil(2)=2 -> w=5.
  EXPECT_DOUBLE_EQ(jittered_response_time(lo, {hi}, 1e6), 5.0);
}

TEST(JitteredResponse, OwnJitterAddsToResponse) {
  const JitteredTask solo{10.0, 2.5, 1.0};
  EXPECT_DOUBLE_EQ(jittered_response_time(solo, {}, 1e6), 3.5);
}

TEST(JitteredResponse, ArbitraryDeadlinesMultipleInstances) {
  // Utilization 1.0 with C=3, T=3 alone: every instance finishes exactly at
  // its period boundary; R = 3.
  const JitteredTask t{3.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(jittered_response_time(t, {}, 1e6), 3.0);
}

TEST(JitteredResponse, OverloadDiverges) {
  const JitteredTask hi{2.0, 0.0, 1.5};
  const JitteredTask lo{4.0, 0.0, 1.5};
  EXPECT_TRUE(std::isinf(jittered_response_time(lo, {hi}, 1e6)));
}

TEST(Holistic, SingleProcessorMatchesBusyPeriodAnalysis) {
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(periodic_job("Hi", 4.0, 4.0, {{0, 1.0, 1}}));
  sys.add_job(periodic_job("Lo", 6.0, 6.0, {{0, 2.0, 2}}));
  const AnalysisResult r = HolisticAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.jobs[0].wcrt, 1.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].wcrt, 3.0);
  EXPECT_TRUE(r.all_schedulable());
}

TEST(Holistic, PipelineAccumulatesJitter) {
  // One job over two processors, no interference: end-to-end bound is the
  // sum of execution times.
  System sys(2, SchedulerKind::kSpp);
  sys.add_job(periodic_job("A", 10.0, 10.0, {{0, 1.0, 1}, {1, 2.0, 1}}));
  const AnalysisResult r = HolisticAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.jobs[0].wcrt, 3.0);
}

TEST(Holistic, CrossProcessorJitterPropagates) {
  // B's hop 2 interferes with A's hop 2; B's hop-2 release jitter comes from
  // its hop-1 response. The bound must exceed the no-jitter value.
  System sys(2, SchedulerKind::kSpp);
  sys.add_job(periodic_job("A", 10.0, 30.0, {{0, 2.0, 2}, {1, 2.0, 2}}));
  sys.add_job(periodic_job("B", 8.0, 30.0, {{0, 1.0, 1}, {1, 3.0, 1}}));
  const AnalysisResult r = HolisticAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(std::isfinite(r.jobs[0].wcrt));
  // A hop1: 2 + 1 = 3 at least; A hop2 suffers B hop2 (3 units, jittered).
  EXPECT_GE(r.jobs[0].wcrt, 8.0 - 1e-9);
}

TEST(Holistic, RejectsNonPeriodicArrivals) {
  System sys(1, SchedulerKind::kSpp);
  Job j;
  j.name = "burst";
  j.deadline = 10.0;
  j.chain = {{0, 1.0, 1}};
  j.arrivals = ArrivalSequence(std::vector<Time>{0.0, 1.0, 4.0});
  sys.add_job(std::move(j));
  const AnalysisResult r = HolisticAnalyzer().analyze(sys);
  EXPECT_FALSE(r.ok);
}

TEST(Holistic, RejectsNonSppSchedulers) {
  System sys(1, SchedulerKind::kFcfs);
  sys.add_job(periodic_job("A", 5.0, 5.0, {{0, 1.0, 0}}));
  const AnalysisResult r = HolisticAnalyzer().analyze(sys);
  EXPECT_FALSE(r.ok);
}

TEST(Holistic, OverloadedSystemUnschedulable) {
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(periodic_job("Hi", 2.0, 2.0, {{0, 1.5, 1}}));
  sys.add_job(periodic_job("Lo", 4.0, 4.0, {{0, 1.5, 2}}));
  const AnalysisResult r = HolisticAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.all_schedulable());
}

TEST(LiuLayland, BoundValues) {
  EXPECT_DOUBLE_EQ(liu_layland_bound(1), 1.0);
  EXPECT_NEAR(liu_layland_bound(2), 0.8284, 1e-4);
  EXPECT_NEAR(liu_layland_bound(100), 0.69556, 1e-4);
  EXPECT_GT(liu_layland_bound(100), std::log(2.0));  // approaches ln 2
}

TEST(LiuLayland, SchedulabilityTest) {
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(periodic_job("A", 4.0, 4.0, {{0, 1.0, 1}}));
  sys.add_job(periodic_job("B", 8.0, 8.0, {{0, 2.0, 2}}));
  // U = 0.25 + 0.25 = 0.5 <= 0.828.
  EXPECT_TRUE(liu_layland_schedulable(sys));
  const auto util = processor_utilizations(sys);
  EXPECT_NEAR(util[0], 0.5, 1e-12);
  // Push utilization past the bound.
  sys.job(1).chain[0].exec_time = 5.6;  // U = 0.95
  EXPECT_FALSE(liu_layland_schedulable(sys));
}

}  // namespace
}  // namespace rta
