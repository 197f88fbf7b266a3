// Tests for arrival envelopes and the interval-domain analysis: envelope
// construction/admission, horizontal deviation, and the dominance chain
// envelope bound >= trace bound >= simulated response.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/spp_exact.hpp"
#include "model/priority.hpp"
#include "sim/simulator.hpp"
#include "support/envelope_analysis.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

TEST(Envelope, LeakyBucketShape) {
  const ArrivalEnvelope e = ArrivalEnvelope::leaky_bucket(3.0, 0.5, 10.0);
  EXPECT_DOUBLE_EQ(e.burst(), 3.0);
  EXPECT_DOUBLE_EQ(e.eval(2.0), 4.0);
  EXPECT_DOUBLE_EQ(e.eval(10.0), 8.0);
  EXPECT_DOUBLE_EQ(e.eval(20.0), 13.0);  // tail extension
  EXPECT_DOUBLE_EQ(e.rate(), 0.5);
}

TEST(Envelope, PeriodicStaircase) {
  // T = 2, no jitter: alpha(0) = 1, jumps at 2, 4, 6...
  const ArrivalEnvelope e = ArrivalEnvelope::periodic(2.0, 10.0);
  EXPECT_DOUBLE_EQ(e.eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.eval(1.9), 1.0);
  EXPECT_DOUBLE_EQ(e.eval(2.0), 2.0);
  EXPECT_DOUBLE_EQ(e.eval(5.0), 3.0);
  EXPECT_DOUBLE_EQ(e.rate(), 0.5);
}

TEST(Envelope, PeriodicWithJitter) {
  // T = 4, J = 3: alpha(0) = ceil(3/4) = 1; jump to 2 at 4-3 = 1, to 3 at 5.
  const ArrivalEnvelope e = ArrivalEnvelope::periodic(4.0, 20.0, 3.0);
  EXPECT_DOUBLE_EQ(e.eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.eval(1.0), 2.0);
  EXPECT_DOUBLE_EQ(e.eval(4.9), 2.0);
  EXPECT_DOUBLE_EQ(e.eval(5.0), 3.0);
  // Jitter beyond a period allows a batch of 2 at delta = 0.
  const ArrivalEnvelope e2 = ArrivalEnvelope::periodic(4.0, 20.0, 5.0);
  EXPECT_DOUBLE_EQ(e2.eval(0.0), 2.0);
}

TEST(Envelope, FromTraceIsTightOnPeriodicTrace) {
  const ArrivalSequence trace = ArrivalSequence::periodic(2.0, 20.0);
  const ArrivalEnvelope e = ArrivalEnvelope::from_trace(trace, 20.0);
  EXPECT_DOUBLE_EQ(e.eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.eval(1.9), 1.0);
  EXPECT_DOUBLE_EQ(e.eval(2.0), 2.0);
  EXPECT_DOUBLE_EQ(e.eval(6.0), 4.0);
  EXPECT_TRUE(e.admits(trace));
}

TEST(Envelope, FromTraceAdmitsItsTrace) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const ArrivalSequence trace =
        ArrivalSequence::jittered_periodic(3.0, 4.0, 40.0, rng);
    const ArrivalEnvelope e = ArrivalEnvelope::from_trace(trace, 40.0);
    EXPECT_TRUE(e.admits(trace)) << "seed " << seed;
  }
}

TEST(Envelope, FromTraceOfBurstyEq27) {
  const ArrivalSequence trace = ArrivalSequence::bursty_eq27(0.4, 40.0);
  const ArrivalEnvelope e = ArrivalEnvelope::from_trace(trace, 40.0);
  EXPECT_TRUE(e.admits(trace));
  // The burst at the head makes the envelope strictly denser than the
  // asymptotic period 1/x = 2.5 would suggest.
  EXPECT_GT(e.eval(5.0), 5.0 / 2.5);
}

TEST(Envelope, AdmitsRejectsDenserTrace) {
  const ArrivalEnvelope e = ArrivalEnvelope::periodic(2.0, 20.0);
  EXPECT_TRUE(e.admits(ArrivalSequence::periodic(2.0, 18.0)));
  EXPECT_TRUE(e.admits(ArrivalSequence::periodic(3.0, 18.0)));   // sparser ok
  EXPECT_FALSE(e.admits(ArrivalSequence::periodic(1.0, 18.0)));  // denser no
}

TEST(Envelope, DominatedByOrdersEnvelopes) {
  const ArrivalEnvelope tight = ArrivalEnvelope::periodic(2.0, 20.0);
  const ArrivalEnvelope loose = ArrivalEnvelope::leaky_bucket(1.0, 0.5, 20.0);
  EXPECT_TRUE(tight.dominated_by(loose));
  EXPECT_FALSE(loose.dominated_by(tight));
  EXPECT_TRUE(tight.dominated_by(tight));
}

TEST(Envelope, WithJitterWidens) {
  const ArrivalEnvelope e = ArrivalEnvelope::periodic(4.0, 40.0);
  const ArrivalEnvelope j = e.with_jitter(3.0);
  EXPECT_TRUE(e.dominated_by(j));
  EXPECT_DOUBLE_EQ(j.eval(1.0), e.eval(4.0));
  EXPECT_DOUBLE_EQ(j.eval(0.0), e.eval(3.0));
}

TEST(HorizontalDeviation, SingleBucketAgainstFullService) {
  // Demand: 2 units at once, then rate 0.25; service: rate 1.
  // Worst delay: at D = 0, demand 2 served by t = 2 -> deviation 2.
  const PwlCurve alpha({{0.0, 2.0, 2.0}, {20.0, 7.0, 7.0}});
  const PwlCurve beta = PwlCurve::identity(40.0);
  EXPECT_NEAR(horizontal_deviation(alpha, beta, 100.0), 2.0, 1e-9);
}

TEST(HorizontalDeviation, UnstableIsInfinite) {
  const PwlCurve alpha({{0.0, 1.0, 1.0}, {20.0, 41.0, 41.0}});  // rate 2
  const PwlCurve beta = PwlCurve::identity(40.0);               // rate 1
  EXPECT_TRUE(std::isinf(horizontal_deviation(alpha, beta, 100.0)));
}

TEST(EnvelopeAnalysis, SingleJobMatchesHandComputation) {
  // One job, one hop, periodic T = 4, tau = 1, no interference: every
  // conforming trace finishes within tau of release -> bound 1.
  System sys(1, SchedulerKind::kSpp);
  Job j;
  j.name = "A";
  j.deadline = 4.0;
  j.chain = {{0, 1.0, 1}};
  j.arrivals = ArrivalSequence::periodic(4.0, 40.0);
  sys.add_job(std::move(j));
  const EnvelopeResult r = EnvelopeAnalyzer().analyze(
      sys, {ArrivalEnvelope::periodic(4.0, 40.0)});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NEAR(r.jobs[0].wcrt, 1.0, 1e-9);
  EXPECT_TRUE(r.jobs[0].schedulable);
}

TEST(EnvelopeAnalysis, InterferenceAndBlocking) {
  // SPNP processor: hi (T=4, tau=1) suffers blocking by lo (tau=2): worst
  // finish = b + tau = 3 for the first activation.
  System sys(1, SchedulerKind::kSpnp);
  Job hi;
  hi.name = "hi";
  hi.deadline = 4.0;
  hi.chain = {{0, 1.0, 1}};
  hi.arrivals = ArrivalSequence::periodic(4.0, 40.0);
  sys.add_job(std::move(hi));
  Job lo;
  lo.name = "lo";
  lo.deadline = 20.0;
  lo.chain = {{0, 2.0, 2}};
  lo.arrivals = ArrivalSequence::periodic(10.0, 40.0);
  sys.add_job(std::move(lo));
  const EnvelopeResult r = EnvelopeAnalyzer().analyze(
      sys, {ArrivalEnvelope::periodic(4.0, 40.0),
            ArrivalEnvelope::periodic(10.0, 40.0)});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NEAR(r.jobs[0].wcrt, 3.0, 1e-9);  // b(2) + tau(1)
  // lo: blocked by nothing, interfered by hi: busy window 2 + 1 = 3.
  EXPECT_NEAR(r.jobs[1].wcrt, 3.0, 1e-9);
}

TEST(EnvelopeAnalysis, OverloadReportsInfinity) {
  System sys(1, SchedulerKind::kSpp);
  Job j;
  j.name = "A";
  j.deadline = 4.0;
  j.chain = {{0, 3.0, 1}};
  j.arrivals = ArrivalSequence::periodic(2.0, 40.0);  // util 1.5
  sys.add_job(std::move(j));
  const EnvelopeResult r = EnvelopeAnalyzer().analyze(
      sys, {ArrivalEnvelope::periodic(2.0, 40.0)});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(std::isinf(r.jobs[0].wcrt));
  EXPECT_FALSE(r.jobs[0].schedulable);
}

TEST(EnvelopeAnalysis, RejectsCyclicTopology) {
  System sys(2, SchedulerKind::kSpnp);
  Job a;
  a.name = "a";
  a.deadline = 10.0;
  a.chain = {{0, 1.0, 2}, {1, 1.0, 1}};
  a.arrivals = ArrivalSequence::periodic(10.0, 20.0);
  sys.add_job(std::move(a));
  Job b;
  b.name = "b";
  b.deadline = 10.0;
  b.chain = {{1, 1.0, 2}, {0, 1.0, 1}};
  b.arrivals = ArrivalSequence::periodic(10.0, 20.0);
  sys.add_job(std::move(b));
  const EnvelopeResult r = EnvelopeAnalyzer().analyze(
      sys, {ArrivalEnvelope::periodic(10.0, 20.0),
            ArrivalEnvelope::periodic(10.0, 20.0)});
  EXPECT_FALSE(r.ok);
}

// The dominance chain on random job shops: for every job,
//   envelope bound >= exact trace bound = simulated worst response.
TEST(EnvelopeAnalysis, DominatesTraceAnalysisOnRandomShops) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    JobShopConfig cfg;
    cfg.stages = 2;
    cfg.processors_per_stage = 2;
    cfg.jobs = 4;
    cfg.pattern = (seed % 2) ? ArrivalPattern::kPeriodic
                             : ArrivalPattern::kAperiodic;
    cfg.utilization = 0.4;
    cfg.window_periods = 5.0;
    cfg.min_rate = 0.2;
    Rng rng(seed);
    System sys = generate_jobshop(cfg, rng);
    assign_proportional_deadline_monotonic(sys);

    const EnvelopeResult env = EnvelopeAnalyzer().analyze_from_traces(sys);
    ASSERT_TRUE(env.ok) << env.error;
    const AnalysisResult exact = ExactSppAnalyzer().analyze(sys);
    ASSERT_TRUE(exact.ok) << exact.error;
    for (int k = 0; k < sys.job_count(); ++k) {
      if (std::isinf(env.jobs[k].wcrt)) continue;  // conservatively fine
      EXPECT_GE(env.jobs[k].wcrt, exact.jobs[k].wcrt - 1e-6)
          << "seed " << seed << " job " << k;
    }
  }
}

// Trace-independence: the envelope bound must also cover a DIFFERENT trace
// conforming to the same envelope (here: a worst-case synchronous phasing
// vs a staggered one; then a two-stage line under jitter and bursts).
TEST(EnvelopeAnalysis, CoversAllConformingTraces) {
  const Time window = 60.0;
  auto build = [&](Time offset_b) {
    System sys(1, SchedulerKind::kSpp);
    Job a;
    a.name = "a";
    a.deadline = 10.0;
    a.chain = {{0, 1.0, 1}};
    a.arrivals = ArrivalSequence::periodic(4.0, window);
    sys.add_job(std::move(a));
    Job b;
    b.name = "b";
    b.deadline = 12.0;
    b.chain = {{0, 2.0, 2}};
    b.arrivals = ArrivalSequence::periodic(6.0, window, offset_b);
    sys.add_job(std::move(b));
    return sys;
  };
  const std::vector<ArrivalEnvelope> envs = {
      ArrivalEnvelope::periodic(4.0, window),
      ArrivalEnvelope::periodic(6.0, window)};

  const EnvelopeResult bound = EnvelopeAnalyzer().analyze(build(0.0), envs);
  ASSERT_TRUE(bound.ok) << bound.error;
  for (Time offset : {0.0, 0.5, 1.7, 3.0}) {
    const System sys = build(offset);
    const SimResult sim = simulate(sys, window + 20.0);
    for (int k = 0; k < 2; ++k) {
      EXPECT_GE(bound.jobs[k].wcrt, sim.worst_response[k] - 1e-6)
          << "offset " << offset << " job " << k;
    }
  }

  // A packet line (classify on P0, forward on P1) certified once against
  // jittered-periodic and leaky-bucket contracts, then run under its
  // nominal traces, a jittered voice stream and all video bursts at t = 0.
  const Time span = 150.0;
  System line(2, SchedulerKind::kSpp);
  auto add = [&line](const char* name, Time deadline, Time exec0, Time exec1,
                     ArrivalSequence arrivals) {
    Job j;
    j.name = name;
    j.deadline = deadline;
    j.chain = {{0, exec0, 0}, {1, exec1, 0}};
    j.arrivals = std::move(arrivals);
    line.add_job(std::move(j));
  };
  add("voice", 6.0, 0.5, 0.8, ArrivalSequence::periodic(4.0, span));
  add("video", 18.0, 1.0, 1.5,
      ArrivalSequence::burst_then_periodic(3, 0.5, 6.0, span));
  add("logs", 40.0, 0.8, 0.4, ArrivalSequence::periodic(10.0, span));
  assign_proportional_deadline_monotonic(line);
  const std::vector<ArrivalEnvelope> contract = {
      ArrivalEnvelope::periodic(4.0, span, /*jitter=*/1.0),
      ArrivalEnvelope::leaky_bucket(/*burst=*/3.0, /*rate=*/1.0 / 6.0, span),
      ArrivalEnvelope::periodic(10.0, span, /*jitter=*/5.0)};
  const EnvelopeResult cert = EnvelopeAnalyzer().analyze(line, contract);
  ASSERT_TRUE(cert.ok) << cert.error;
  ASSERT_TRUE(cert.all_schedulable());

  std::vector<System> traces(3, line);
  Rng rng(7);
  traces[1].job(0).arrivals =
      ArrivalSequence::jittered_periodic(4.0, 1.0, span, rng);
  traces[2].job(1).arrivals =
      ArrivalSequence::burst_then_periodic(3, 0.0001, 6.0, span);
  for (std::size_t v = 0; v < traces.size(); ++v) {
    const SimResult sim = simulate(traces[v], span + 60.0);
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(contract[k].admits(traces[v].job(k).arrivals))
          << "trace " << v << " job " << k;
      EXPECT_GE(cert.jobs[k].wcrt, sim.worst_response[k] - 1e-6)
          << "trace " << v << " job " << k;
    }
  }
}

}  // namespace
}  // namespace rta
