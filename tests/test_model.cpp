// Unit tests for the system model: topology queries, blocking times (Eq. 15),
// validation, and dependency-cycle detection (§6 loops).
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/order.hpp"
#include "model/system.hpp"

namespace rta {
namespace {

System two_proc_two_job_system() {
  System sys(2, SchedulerKind::kSpp);
  Job a;
  a.name = "A";
  a.deadline = 10.0;
  a.chain = {{0, 1.0, 1}, {1, 2.0, 2}};
  a.arrivals = ArrivalSequence::periodic(5.0, 20.0);
  sys.add_job(std::move(a));
  Job b;
  b.name = "B";
  b.deadline = 12.0;
  b.chain = {{0, 0.5, 2}, {1, 1.5, 1}};
  b.arrivals = ArrivalSequence::periodic(6.0, 20.0);
  sys.add_job(std::move(b));
  return sys;
}

TEST(System, SubjobsOnProcessor) {
  const System sys = two_proc_two_job_system();
  const auto on0 = sys.subjobs_on(0);
  ASSERT_EQ(on0.size(), 2u);
  EXPECT_EQ(on0[0], (SubjobRef{0, 0}));
  EXPECT_EQ(on0[1], (SubjobRef{1, 0}));
  const auto on1 = sys.subjobs_on(1);
  ASSERT_EQ(on1.size(), 2u);
  EXPECT_EQ(on1[0], (SubjobRef{0, 1}));
}

TEST(System, HigherPriorityQuery) {
  const System sys = two_proc_two_job_system();
  const auto hp = sys.higher_priority_on(0, 2);
  ASSERT_EQ(hp.size(), 1u);
  EXPECT_EQ(hp[0], (SubjobRef{0, 0}));
  EXPECT_TRUE(sys.higher_priority_on(0, 1).empty());
}

TEST(System, BlockingTimeEq15) {
  const System sys = two_proc_two_job_system();
  // On P0, job A hop 0 (prio 1) can be blocked by job B hop 0 (prio 2,
  // tau = 0.5); B's subjob has nothing below it.
  EXPECT_DOUBLE_EQ(sys.blocking_time({0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(sys.blocking_time({1, 0}), 0.0);
  // On P1, B hop 1 has priority 1, blocked by A hop 1 (tau = 2).
  EXPECT_DOUBLE_EQ(sys.blocking_time({1, 1}), 2.0);
}

TEST(System, ValidSystemPassesValidation) {
  EXPECT_TRUE(two_proc_two_job_system().validate().empty());
}

TEST(System, ValidationCatchesEmptyChain) {
  System sys(1);
  Job j;
  j.name = "bad";
  j.deadline = 1.0;
  j.arrivals = ArrivalSequence(std::vector<Time>{0.0});
  sys.add_job(std::move(j));
  EXPECT_FALSE(sys.validate().empty());
}

TEST(System, ValidationCatchesBadProcessorAndExecTime) {
  System sys(1);
  Job j;
  j.name = "bad";
  j.deadline = 1.0;
  j.chain = {{5, -1.0, 1}};
  j.arrivals = ArrivalSequence(std::vector<Time>{0.0});
  sys.add_job(std::move(j));
  EXPECT_GE(sys.validate().size(), 2u);
}

TEST(System, ValidationCatchesDuplicatePriorities) {
  System sys = two_proc_two_job_system();
  sys.subjob({1, 0}).priority = 1;  // clashes with A hop 0 on P0
  EXPECT_FALSE(sys.validate().empty());
  // FCFS processors do not need unique priorities.
  sys.set_scheduler(0, SchedulerKind::kFcfs);
  EXPECT_TRUE(sys.validate().empty());
}

TEST(System, ValidationCatchesNoArrivalsAndNonPositiveDeadline) {
  System sys(1);
  Job j;
  j.name = "bad";
  j.deadline = 0.0;
  j.chain = {{0, 1.0, 1}};
  sys.add_job(std::move(j));
  EXPECT_GE(sys.validate().size(), 2u);
}

TEST(System, ValidationCatchesNonFiniteExecAndDeadline) {
  // NaN slips past a plain `<= 0` check; infinities are positive. Both must
  // be rejected wherever the values come from, not only by the parsers.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [exec, deadline] :
       {std::pair{nan, 10.0}, std::pair{inf, 10.0}, std::pair{1.0, nan},
        std::pair{1.0, inf}}) {
    System sys = two_proc_two_job_system();
    sys.subjob({0, 1}).exec_time = exec;
    sys.job(0).deadline = deadline;
    const std::vector<std::string> problems = sys.validate();
    ASSERT_EQ(problems.size(), 1u) << exec << " " << deadline;
    EXPECT_NE(problems[0].find("non-finite"), std::string::npos)
        << problems[0];
  }
}

TEST(System, UtilizationEstimate) {
  const System sys = two_proc_two_job_system();
  // Window 20: A releases at 0,5,10,15,20 (5 instances), B at 0,6,12,18 (4).
  const auto util = sys.utilization_estimate(20.0);
  EXPECT_NEAR(util[0], (5 * 1.0 + 4 * 0.5) / 20.0, 1e-12);
  EXPECT_NEAR(util[1], (5 * 2.0 + 4 * 1.5) / 20.0, 1e-12);
}

TEST(System, FeedForwardShopIsAcyclic) {
  EXPECT_TRUE(dependency_order(two_proc_two_job_system()).has_value());
}

TEST(System, LogicalLoopIsDetected) {
  // The paper's §6 example: T_k's hop j-1 shares a processor with a
  // higher-priority T_n hop i, and T_n's hop i-1 shares a processor with a
  // higher-priority T_k hop j.
  System sys(2, SchedulerKind::kSpp);
  Job k;
  k.name = "Tk";
  k.deadline = 10.0;
  k.chain = {{0, 1.0, 2}, {1, 1.0, 1}};  // hop j-1 on P0 (lo), hop j on P1 (hi)
  k.arrivals = ArrivalSequence(std::vector<Time>{0.0});
  sys.add_job(std::move(k));
  Job n;
  n.name = "Tn";
  n.deadline = 10.0;
  n.chain = {{1, 1.0, 2}, {0, 1.0, 1}};  // hop i-1 on P1 (lo), hop i on P0 (hi)
  n.arrivals = ArrivalSequence(std::vector<Time>{0.0});
  sys.add_job(std::move(n));
  EXPECT_FALSE(dependency_order(sys).has_value());
}

TEST(System, PhysicalLoopIsDetectedUnderFcfs) {
  // A job visiting the same FCFS processor twice couples with itself.
  System sys(2, SchedulerKind::kFcfs);
  Job j;
  j.name = "loop";
  j.deadline = 10.0;
  j.chain = {{0, 1.0, 0}, {1, 1.0, 0}, {0, 1.0, 0}};
  j.arrivals = ArrivalSequence(std::vector<Time>{0.0});
  sys.add_job(std::move(j));
  EXPECT_FALSE(dependency_order(sys).has_value());
}

TEST(System, SchedulerKindNames) {
  EXPECT_STREQ(to_string(SchedulerKind::kSpp), "SPP");
  EXPECT_STREQ(to_string(SchedulerKind::kSpnp), "SPNP");
  EXPECT_STREQ(to_string(SchedulerKind::kFcfs), "FCFS");
}

}  // namespace
}  // namespace rta
