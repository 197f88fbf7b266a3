// The simulator watchdog: legal-schedule invariants on hand-built and
// randomized runs, plus detection of deliberately corrupted traces.
#include <gtest/gtest.h>

#include "analysis/result.hpp"
#include "model/priority.hpp"
#include "sim/simulator.hpp"
#include "support/sim_invariants.hpp"
#include "workload/jobshop.hpp"

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

TEST(SimInvariants, CleanOnHandBuiltSpp) {
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(make_job("Low", 10.0, {{0, 4.0, 2}}, {0.0}));
  sys.add_job(make_job("High", 10.0, {{0, 1.0, 1}}, {1.0}));
  const SimResult r = simulate(sys, 20.0);
  EXPECT_TRUE(check_simulation_invariants(sys, r).empty());
}

TEST(SimInvariants, CleanOnHandBuiltSpnpAndFcfs) {
  for (SchedulerKind kind : {SchedulerKind::kSpnp, SchedulerKind::kFcfs}) {
    System sys(1, kind);
    sys.add_job(make_job("A", 20.0, {{0, 2.0, 1}}, {0.0, 3.0, 6.0}));
    sys.add_job(make_job("B", 20.0, {{0, 1.5, 2}}, {0.5, 5.0}));
    const SimResult r = simulate(sys, 40.0);
    const auto v = check_simulation_invariants(sys, r);
    EXPECT_TRUE(v.empty()) << to_string(kind) << ": " << v.front();
  }
}

TEST(SimInvariants, CleanOnRandomShops) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (SchedulerKind kind : {SchedulerKind::kSpp, SchedulerKind::kSpnp,
                               SchedulerKind::kFcfs}) {
      JobShopConfig cfg;
      cfg.stages = 3;
      cfg.processors_per_stage = 2;
      cfg.jobs = 5;
      cfg.pattern = (seed % 2) ? ArrivalPattern::kPeriodic
                               : ArrivalPattern::kAperiodic;
      cfg.utilization = 0.6;
      cfg.window_periods = 5.0;
      cfg.min_rate = 0.15;
      cfg.scheduler = kind;
      Rng rng(seed);
      System sys = generate_jobshop(cfg, rng);
      assign_proportional_deadline_monotonic(sys);
      const SimResult r =
          simulate(sys, default_horizon(sys, AnalysisConfig{}));
      const auto v = check_simulation_invariants(sys, r);
      EXPECT_TRUE(v.empty())
          << to_string(kind) << " seed " << seed << ": " << v.front();
    }
  }
}

TEST(SimInvariants, DetectsIdleInjection) {
  // Corrupt a clean run by deleting a service segment: the work-conservation
  // and accounting checks must fire.
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(make_job("A", 10.0, {{0, 2.0, 1}}, {0.0, 4.0}));
  SimResult r = simulate(sys, 20.0);
  ASSERT_TRUE(check_simulation_invariants(sys, r).empty());
  r.segments[0][0].pop_back();
  EXPECT_FALSE(check_simulation_invariants(sys, r).empty());
}

TEST(SimInvariants, DetectsPriorityInversion) {
  // Swap the priorities in the MODEL after simulating: the recorded schedule
  // now violates SPP priority compliance.
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(make_job("A", 10.0, {{0, 2.0, 1}}, {0.0}));
  sys.add_job(make_job("B", 10.0, {{0, 2.0, 2}}, {0.0}));
  const SimResult r = simulate(sys, 20.0);
  ASSERT_TRUE(check_simulation_invariants(sys, r).empty());
  System swapped = sys;
  swapped.subjob({0, 0}).priority = 2;
  swapped.subjob({1, 0}).priority = 1;
  EXPECT_FALSE(check_simulation_invariants(swapped, r).empty());
}

TEST(SimInvariants, DetectsFcfsOrderViolation) {
  // A SPP schedule (which may overtake) checked against a FCFS model.
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(make_job("Late", 20.0, {{0, 1.0, 1}}, {0.5}));   // overtakes
  sys.add_job(make_job("Early", 20.0, {{0, 4.0, 2}}, {0.0}));
  const SimResult r = simulate(sys, 20.0);
  System as_fcfs = sys;
  as_fcfs.set_scheduler(0, SchedulerKind::kFcfs);
  const auto v = check_simulation_invariants(as_fcfs, r);
  EXPECT_FALSE(v.empty());
}

TEST(SimInvariants, IncompleteRunsAreStillLegal) {
  // Truncated horizon: unfinished instances must not trigger violations.
  System sys(1, SchedulerKind::kSpnp);
  sys.add_job(make_job("A", 10.0, {{0, 5.0, 1}}, {0.0, 1.0}));
  const SimResult r = simulate(sys, 6.0);
  EXPECT_FALSE(r.all_completed);
  const auto v = check_simulation_invariants(sys, r);
  EXPECT_TRUE(v.empty()) << v.front();
}

}  // namespace
}  // namespace rta
