// Unit tests for priority assignment (Eq. 24 and alternatives).
#include <gtest/gtest.h>

#include "model/priority.hpp"

namespace rta {
namespace {

System make_shop() {
  System sys(2, SchedulerKind::kSpp);
  // Job A: deadline 10, chain exec 1 + 3 -> sub-deadlines 2.5 and 7.5.
  Job a;
  a.name = "A";
  a.deadline = 10.0;
  a.chain = {{0, 1.0, 0}, {1, 3.0, 0}};
  a.arrivals = ArrivalSequence::periodic(8.0, 30.0);
  sys.add_job(std::move(a));
  // Job B: deadline 6, chain exec 2 + 1 -> sub-deadlines 4 and 2.
  Job b;
  b.name = "B";
  b.deadline = 6.0;
  b.chain = {{0, 2.0, 0}, {1, 1.0, 0}};
  b.arrivals = ArrivalSequence::periodic(12.0, 30.0);
  sys.add_job(std::move(b));
  return sys;
}

TEST(Priority, ProportionalSubdeadlineEq24) {
  const System sys = make_shop();
  EXPECT_DOUBLE_EQ(proportional_subdeadline(sys.job(0), 0), 2.5);
  EXPECT_DOUBLE_EQ(proportional_subdeadline(sys.job(0), 1), 7.5);
  EXPECT_DOUBLE_EQ(proportional_subdeadline(sys.job(1), 0), 4.0);
  EXPECT_DOUBLE_EQ(proportional_subdeadline(sys.job(1), 1), 2.0);
}

TEST(Priority, ProportionalDeadlineMonotonicAssignment) {
  System sys = make_shop();
  assign_proportional_deadline_monotonic(sys);
  // P0: A hop0 (2.5) beats B hop0 (4.0).
  EXPECT_EQ(sys.subjob({0, 0}).priority, 1);
  EXPECT_EQ(sys.subjob({1, 0}).priority, 2);
  // P1: B hop1 (2.0) beats A hop1 (7.5).
  EXPECT_EQ(sys.subjob({1, 1}).priority, 1);
  EXPECT_EQ(sys.subjob({0, 1}).priority, 2);
  EXPECT_TRUE(sys.validate().empty());
}

TEST(Priority, DeadlineMonotonicUsesJobDeadline) {
  System sys = make_shop();
  assign_deadline_monotonic(sys);
  // B's deadline (6) < A's (10): B wins on both processors.
  EXPECT_EQ(sys.subjob({1, 0}).priority, 1);
  EXPECT_EQ(sys.subjob({1, 1}).priority, 1);
  EXPECT_EQ(sys.subjob({0, 0}).priority, 2);
  EXPECT_EQ(sys.subjob({0, 1}).priority, 2);
}

TEST(Priority, RateMonotonicUsesMinInterArrival) {
  System sys = make_shop();
  assign_rate_monotonic(sys);
  // A's period (8) < B's (12): A wins everywhere.
  EXPECT_EQ(sys.subjob({0, 0}).priority, 1);
  EXPECT_EQ(sys.subjob({0, 1}).priority, 1);
}

TEST(Priority, ExplicitJobRank) {
  System sys = make_shop();
  assign_by_job_rank(sys, {2.0, 1.0});
  EXPECT_EQ(sys.subjob({1, 0}).priority, 1);
  EXPECT_EQ(sys.subjob({0, 0}).priority, 2);
}

TEST(Priority, TiesBreakDeterministically) {
  System sys(1, SchedulerKind::kSpp);
  for (int i = 0; i < 3; ++i) {
    Job j;
    j.name = "J";
    j.name += std::to_string(i);
    j.deadline = 5.0;
    j.chain = {{0, 1.0, 0}};
    j.arrivals = ArrivalSequence::periodic(5.0, 20.0);
    sys.add_job(std::move(j));
  }
  assign_deadline_monotonic(sys);  // all deadlines equal -> tie on job index
  EXPECT_EQ(sys.subjob({0, 0}).priority, 1);
  EXPECT_EQ(sys.subjob({1, 0}).priority, 2);
  EXPECT_EQ(sys.subjob({2, 0}).priority, 3);
  EXPECT_TRUE(sys.validate().empty());
}

}  // namespace
}  // namespace rta
