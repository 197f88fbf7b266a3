// Tests for the approximate bounds analyzer on priority processors (§4.2.2):
// blocking effects, Eq. 12 local delays, heterogeneous systems, and the
// counterexample showing why Eq. 17's printed interference term (subtracting
// lower bounds of higher-priority service) is unsound.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bounds.hpp"
#include "analysis/spp_exact.hpp"
#include "sim/simulator.hpp"
#include "support/literal_bounds.hpp"

namespace rta {
namespace {

Job make_job(const std::string& name, double deadline,
             std::vector<Subjob> chain, std::vector<Time> releases) {
  Job j;
  j.name = name;
  j.deadline = deadline;
  j.chain = std::move(chain);
  j.arrivals = ArrivalSequence(std::move(releases));
  return j;
}

TEST(Bounds, SingleJobNoInterference) {
  System sys(1, SchedulerKind::kSpnp);
  sys.add_job(make_job("A", 10.0, {{0, 2.0, 1}}, {0.0, 5.0}));
  const AnalysisResult r = BoundsAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  // No lower-priority subjobs -> b = 0; the bound is exact here.
  EXPECT_NEAR(r.jobs[0].wcrt, 2.0, 1e-9);
  EXPECT_TRUE(r.jobs[0].schedulable);
}

TEST(Bounds, BlockingChargedToHighPriority) {
  // High (prio 1, tau 1, released at 0) can be blocked by Low (prio 2,
  // tau 4): worst-case completion 1 + 4 = 5 under SPNP.
  System sys(1, SchedulerKind::kSpnp);
  sys.add_job(make_job("High", 10.0, {{0, 1.0, 1}}, {0.0}));
  sys.add_job(make_job("Low", 10.0, {{0, 4.0, 2}}, {0.0}));
  const AnalysisResult r = BoundsAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NEAR(r.jobs[0].wcrt, 5.0, 1e-9);
  // The simulator (ties: job 0 first) completes High at 1; the bound must
  // cover the adversarial tie order.
  const SimResult s = simulate(sys, 20.0);
  EXPECT_DOUBLE_EQ(s.worst_response[0], 1.0);
  EXPECT_GE(r.jobs[0].wcrt, s.worst_response[0]);
}

TEST(Bounds, SppVariantHasNoBlocking) {
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(make_job("High", 10.0, {{0, 1.0, 1}}, {0.0}));
  sys.add_job(make_job("Low", 10.0, {{0, 4.0, 2}}, {0.0}));
  const AnalysisResult r = BoundsAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NEAR(r.jobs[0].wcrt, 1.0, 1e-9);   // preempts immediately
  EXPECT_NEAR(r.jobs[1].wcrt, 5.0, 1e-9);   // suffers the interference
}

TEST(Bounds, Eq17PrintedFormIsUnsound) {
  // The counterexample from bounds.hpp: H (prio 1, tau 1) and L (prio 2,
  // tau 1), both released at 0 on one SPNP processor (no blocking for L).
  // Eq. 17 as printed computes L's availability as t - b_L - S̲_H(t) with
  // S̲_H(t) = max(0, min(t - 1, 1)) (H can be blocked by L for 1 unit), so
  // B_L(1) = 1 - 0 = 1 and the printed S̲_L(1) = 1: it claims L received a
  // full unit of service by t = 1, but the scheduler runs H first, so L has
  // received nothing and responds at 2.
  System sys(1, SchedulerKind::kSpnp);
  sys.add_job(make_job("H", 10.0, {{0, 1.0, 1}}, {0.0}));
  sys.add_job(make_job("L", 10.0, {{0, 1.0, 2}}, {0.0}));
  AnalysisConfig cfg;
  cfg.record_curves = true;
  const SimResult s = simulate(sys, 20.0);
  EXPECT_NEAR(s.worst_response[1], 2.0, 1e-9);

  // The printed form, through the test-only literal driver: S̲_L(1) = 1 and
  // a WCRT bound of 1, below the simulated response.
  const AnalysisResult lit = literal::analyze(sys, cfg);
  ASSERT_TRUE(lit.ok) << lit.error;
  EXPECT_NEAR(lit.jobs[1].hops[0].curves[0].service_lower.eval(1.0), 1.0,
              1e-9);
  EXPECT_NEAR(lit.jobs[1].wcrt, 1.0, 1e-9);
  EXPECT_LT(lit.jobs[1].wcrt, s.worst_response[1] - 1e-9);

  // The shipped bound: S̲_L(1) = 0, and L's response bound covers the worst
  // case (runs after H).
  const AnalysisResult r = BoundsAnalyzer(cfg).analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LE(r.jobs[1].hops[0].curves[0].service_lower.eval(1.0), 0.0 + 1e-9);
  EXPECT_GE(r.jobs[1].wcrt, s.worst_response[1] - 1e-9);
}

TEST(Bounds, BlockingChargedPerBusyPeriod) {
  // Theorem 5's literal window charges b once globally. Two well-separated
  // instances of High must EACH budget for blocking by Low-ish work.
  // High: tau 1 at t = 0 and t = 100. Low: tau 2 released at 0 and 99.9.
  System sys(1, SchedulerKind::kSpnp);
  sys.add_job(make_job("High", 10.0, {{0, 1.0, 1}}, {0.0, 100.0}));
  sys.add_job(make_job("Low", 200.0, {{0, 2.0, 2}}, {0.0, 99.9}));
  const AnalysisResult r = BoundsAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  const SimResult s = simulate(sys, 300.0);
  // Simulated: instance 2 of High arrives at 100 while Low (started 99.9)
  // blocks until 101.9; completion 102.9 -> response 2.9.
  EXPECT_NEAR(s.worst_response[0], 2.9, 1e-9);
  EXPECT_GE(r.jobs[0].wcrt, s.worst_response[0] - 1e-9);
}

TEST(Bounds, LocalDelayBoundEq12) {
  const PwlCurve arr = PwlCurve::step(10.0, {0.0, 2.0});
  const PwlCurve dep = PwlCurve::step(10.0, {1.5, 4.0});
  EXPECT_NEAR(detail::local_delay_bound(dep, arr), 2.0, 1e-12);
}

TEST(Bounds, LocalDelayBoundUnboundedWithinHorizon) {
  const PwlCurve arr = PwlCurve::step(10.0, {0.0, 2.0});
  const PwlCurve dep = PwlCurve::step(10.0, {1.5});  // 2nd never departs
  EXPECT_TRUE(std::isinf(detail::local_delay_bound(dep, arr)));
}

TEST(Bounds, EndToEndIsSumOfLocalBounds) {
  System sys(2, SchedulerKind::kSpnp);
  sys.add_job(make_job("A", 20.0, {{0, 1.0, 1}, {1, 2.0, 1}}, {0.0, 6.0}));
  const AnalysisResult r = BoundsAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  double total = 0.0;
  for (const auto& hop : r.jobs[0].hops) total += hop.local_bound;
  EXPECT_NEAR(r.jobs[0].wcrt, total, 1e-12);
}

TEST(Bounds, HeterogeneousSchedulersSupported) {
  System sys(3, SchedulerKind::kSpp);
  sys.set_scheduler(1, SchedulerKind::kSpnp);
  sys.set_scheduler(2, SchedulerKind::kFcfs);
  sys.add_job(make_job("A", 30.0, {{0, 1.0, 1}, {1, 1.0, 1}, {2, 1.0, 0}},
                       {0.0, 4.0}));
  sys.add_job(make_job("B", 30.0, {{0, 0.5, 2}, {1, 0.5, 2}, {2, 0.5, 0}},
                       {0.5, 4.5}));
  const AnalysisResult r = BoundsAnalyzer().analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  const SimResult s = simulate(sys, r.horizon);
  ASSERT_TRUE(s.all_completed);
  for (int k = 0; k < 2; ++k) {
    EXPECT_GE(r.jobs[k].wcrt, s.worst_response[k] - 1e-9) << "job " << k;
  }
}

TEST(Bounds, RejectsCyclicTopology) {
  System sys(2, SchedulerKind::kSpnp);
  sys.add_job(make_job("Tk", 10.0, {{0, 1.0, 2}, {1, 1.0, 1}}, {0.0}));
  sys.add_job(make_job("Tn", 10.0, {{1, 1.0, 2}, {0, 1.0, 1}}, {0.0}));
  const AnalysisResult r = BoundsAnalyzer().analyze(sys);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("Iterative"), std::string::npos);
}

TEST(Bounds, HorizonDoublingResolvesTightWindows) {
  // A long pipeline whose completion falls beyond the initial horizon
  // padding: the analyzer doubles the horizon instead of reporting infinity.
  System sys(1, SchedulerKind::kSpnp);
  // deadline tiny -> initial padding small; exec pushes completion out.
  sys.add_job(make_job("A", 0.5, {{0, 3.0, 1}}, {0.0, 0.1, 0.2, 0.3}));
  AnalysisConfig cfg;
  cfg.max_horizon_doublings = 6;  // initial horizon 1.3; completion at 12
  const AnalysisResult r = BoundsAnalyzer(cfg).analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(std::isfinite(r.jobs[0].wcrt));
  EXPECT_NEAR(r.jobs[0].wcrt, 11.7, 1e-6);  // 4th instance: 12 - 0.3
  EXPECT_FALSE(r.jobs[0].schedulable);
}

TEST(Bounds, UpperBoundGatesArrivalAtHorizon) {
  // hi's second instance can arrive no earlier than t = 10 = H. Its
  // candidate term base_2 + (t - s_2) only holds once that instance has
  // arrived; applied on [0, H) it drove S̄_hi(1) to -8, so lo's bound
  // ignored hi's interference and came out 0 against a simulated 2.
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(make_job("hi", 20.0, {{0, 1.0, 1}}, {0.0, 10.0}));
  sys.add_job(make_job("lo", 20.0, {{0, 1.0, 2}}, {0.0}));
  AnalysisConfig cfg;
  cfg.horizon = 10.0;
  cfg.max_horizon_doublings = 0;
  cfg.record_curves = true;
  const AnalysisResult r = BoundsAnalyzer(cfg).analyze(sys);
  ASSERT_TRUE(r.ok) << r.error;
  const SimResult s = simulate(sys, 20.0);
  ASSERT_TRUE(s.all_completed);
  EXPECT_NEAR(s.worst_response[1], 2.0, 1e-9);
  for (int k = 0; k < 2; ++k) {
    EXPECT_GE(r.jobs[k].wcrt, s.worst_response[k] - 1e-9) << "job " << k;
  }
  const PwlCurve& hi_upper = r.jobs[0].hops[0].curves[0].service_upper;
  EXPECT_GE(hi_upper.eval(1.0), 1.0 - 1e-9);  // hi has run [0, 1] by then
}

}  // namespace
}  // namespace rta
