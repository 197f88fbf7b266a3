// Tests for Phase Modification: the analyzer's zero-jitter per-hop bounds,
// the phased simulator semantics, and the intro's qualitative claims (PM
// tightens worst-case bounds vs holistic DS; PM worsens average response).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/holistic.hpp"
#include "model/priority.hpp"
#include "sim/simulator.hpp"
#include "support/phase_mod.hpp"
#include "support/sim_invariants.hpp"
#include "workload/jobshop.hpp"

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

System periodic_shop(std::uint64_t seed, std::size_t stages) {
  JobShopConfig cfg;
  cfg.stages = stages;
  cfg.processors_per_stage = 2;
  cfg.jobs = 5;
  cfg.utilization = 0.5;
  cfg.window_periods = 6.0;
  cfg.min_rate = 0.2;
  Rng rng(seed);
  System sys = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(sys);
  return sys;
}

TEST(PhaseMod, SingleHopMatchesHolistic) {
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(periodic_job("Hi", 4.0, 4.0, {{0, 1.0, 1}}));
  sys.add_job(periodic_job("Lo", 6.0, 6.0, {{0, 2.0, 2}}));
  const AnalysisResult pm = PhaseModAnalyzer().analyze(sys);
  const AnalysisResult ds = HolisticAnalyzer().analyze(sys);
  ASSERT_TRUE(pm.ok && ds.ok);
  EXPECT_DOUBLE_EQ(pm.jobs[0].wcrt, ds.jobs[0].wcrt);
  EXPECT_DOUBLE_EQ(pm.jobs[1].wcrt, ds.jobs[1].wcrt);
}

TEST(PhaseMod, OffsetsAccumulateHopBounds) {
  System sys(2, SchedulerKind::kSpp);
  sys.add_job(periodic_job("A", 10.0, 30.0, {{0, 1.0, 1}, {1, 2.0, 1}}));
  PhaseSchedule schedule;
  const AnalysisResult r = PhaseModAnalyzer().analyze(sys, &schedule);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(schedule.offsets[0].size(), 2u);
  EXPECT_DOUBLE_EQ(schedule.offsets[0][0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.offsets[0][1], 1.0);  // hop 0 bound
  EXPECT_DOUBLE_EQ(r.jobs[0].wcrt, 3.0);
}

TEST(PhaseMod, SimulatorWaitsForSlot) {
  // One job, two hops; slot for hop 2 is at offset 5 even though hop 1
  // finishes at 1.
  System sys(2, SchedulerKind::kSpp);
  sys.add_job(periodic_job("A", 10.0, 30.0, {{0, 1.0, 1}, {1, 2.0, 1}}, 30.0));
  PhaseSchedule schedule;
  schedule.offsets = {{0.0, 5.0}};
  const SimResult s = simulate_phased(sys, schedule, 60.0);
  ASSERT_TRUE(s.all_completed);
  EXPECT_DOUBLE_EQ(s.traces[0][0].hop_complete[0], 1.0);
  EXPECT_DOUBLE_EQ(s.traces[0][0].hop_release[1], 5.0);   // waited
  EXPECT_DOUBLE_EQ(s.traces[0][0].hop_complete[1], 7.0);
  // Second instance: released at 10, slot at 15.
  EXPECT_DOUBLE_EQ(s.traces[0][1].hop_release[1], 15.0);
}

TEST(PhaseMod, LatePredecessorFallsBackToCompletion) {
  // Slot earlier than the predecessor's completion: release at completion.
  System sys(2, SchedulerKind::kSpp);
  sys.add_job(periodic_job("A", 20.0, 40.0, {{0, 3.0, 1}, {1, 1.0, 1}}, 20.0));
  PhaseSchedule schedule;
  schedule.offsets = {{0.0, 1.0}};  // too optimistic
  const SimResult s = simulate_phased(sys, schedule, 60.0);
  EXPECT_DOUBLE_EQ(s.traces[0][0].hop_release[1], 3.0);
}

TEST(PhaseMod, PhasedArrivalsArePeriodicPerHop) {
  // With analyzer-derived offsets, every hop's releases are exactly
  // periodic: slot = release_m + const (the slot always dominates).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const System sys = periodic_shop(seed, 3);
    PhaseSchedule schedule;
    const AnalysisResult r = PhaseModAnalyzer().analyze(sys, &schedule);
    ASSERT_TRUE(r.ok) << r.error;
    if (!r.all_schedulable()) continue;
    const SimResult s =
        simulate_phased(sys, schedule, default_horizon(sys, AnalysisConfig{}));
    for (int k = 0; k < sys.job_count(); ++k) {
      for (std::size_t h = 1; h < sys.job(k).chain.size(); ++h) {
        for (std::size_t m = 0; m < s.traces[k].size(); ++m) {
          if (!std::isfinite(s.traces[k][m].hop_release[h])) continue;
          EXPECT_NEAR(s.traces[k][m].hop_release[h],
                      sys.job(k).arrivals.release(m + 1) +
                          schedule.offsets[k][h],
                      1e-6)
              << "seed " << seed << " job " << k << " hop " << h;
        }
      }
    }
    // And the run is still a legal schedule.
    EXPECT_TRUE(check_simulation_invariants(sys, s).empty());
  }
}

TEST(PhaseMod, BoundDominatesPhasedSimulation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const System sys = periodic_shop(seed, 3);
    PhaseSchedule schedule;
    const AnalysisResult r = PhaseModAnalyzer().analyze(sys, &schedule);
    ASSERT_TRUE(r.ok) << r.error;
    const SimResult s =
        simulate_phased(sys, schedule, default_horizon(sys, AnalysisConfig{}));
    for (int k = 0; k < sys.job_count(); ++k) {
      if (std::isinf(r.jobs[k].wcrt)) continue;
      EXPECT_GE(r.jobs[k].wcrt, s.worst_response[k] - 1e-6)
          << "seed " << seed << " job " << k;
    }
  }
}

TEST(PhaseMod, NeverLooserThanHolisticDS) {
  // Zero jitter per hop can only shrink the busy-period bounds, so
  // PM <= holistic DS for every job (the intro's motivation for
  // synchronization).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const System sys = periodic_shop(seed, 4);
    const AnalysisResult pm = PhaseModAnalyzer().analyze(sys);
    const AnalysisResult ds = HolisticAnalyzer().analyze(sys);
    ASSERT_TRUE(pm.ok && ds.ok);
    for (int k = 0; k < sys.job_count(); ++k) {
      if (std::isinf(ds.jobs[k].wcrt)) continue;
      EXPECT_LE(pm.jobs[k].wcrt, ds.jobs[k].wcrt + 1e-6)
          << "seed " << seed << " job " << k;
    }
  }
}

TEST(PhaseMod, IncreasesAverageResponseVsDirectSync) {
  // PM inserts idle waits, so across many systems the mean end-to-end
  // response grows relative to direct synchronization ([1]'s trade-off).
  double ds_sum = 0.0, pm_sum = 0.0;
  std::size_t n = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const System sys = periodic_shop(seed, 3);
    PhaseSchedule schedule;
    const AnalysisResult r = PhaseModAnalyzer().analyze(sys, &schedule);
    if (!r.ok || !r.all_schedulable()) continue;
    const Time horizon = default_horizon(sys, AnalysisConfig{});
    const SimResult ds = simulate(sys, horizon);
    const SimResult pm = simulate_phased(sys, schedule, horizon);
    for (int k = 0; k < sys.job_count(); ++k) {
      for (std::size_t m = 0; m < ds.traces[k].size(); ++m) {
        if (!ds.traces[k][m].completed() || !pm.traces[k][m].completed()) {
          continue;
        }
        ds_sum += ds.traces[k][m].response();
        pm_sum += pm.traces[k][m].response();
        ++n;
      }
    }
  }
  ASSERT_GT(n, 100u);
  EXPECT_GT(pm_sum / static_cast<double>(n),
            ds_sum / static_cast<double>(n));
}

TEST(PhaseMod, RejectsAperiodicAndNonSpp) {
  System fcfs(1, SchedulerKind::kFcfs);
  fcfs.add_job(periodic_job("A", 5.0, 5.0, {{0, 1.0, 0}}));
  EXPECT_FALSE(PhaseModAnalyzer().analyze(fcfs).ok);

  System sys(1, SchedulerKind::kSpp);
  Job j;
  j.name = "burst";
  j.deadline = 10.0;
  j.chain = {{0, 1.0, 1}};
  j.arrivals = ArrivalSequence(std::vector<Time>{0.0, 1.0, 4.0});
  sys.add_job(std::move(j));
  EXPECT_FALSE(PhaseModAnalyzer().analyze(sys).ok);
}

}  // namespace
}  // namespace rta
