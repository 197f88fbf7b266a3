// Tests for the text system format (io/system_text) and curve CSV export.
#include <gtest/gtest.h>

#include <sstream>

#include "io/curve_csv.hpp"
#include "io/system_text.hpp"
#include "io/trace_csv.hpp"
#include "model/priority.hpp"
#include "sim/simulator.hpp"
#include "support/curve_knots_csv.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

const char* kSample = R"(
# two-processor pipeline
processors 2
scheduler 1 FCFS

job control deadline 3.0
  hop 0 exec 0.4 prio 1
  hop 1 exec 1.0
  arrivals periodic period 4.0 window 20.0
end

job burst deadline 9
  hop 0 exec 0.3 prio 2
  hop 1 exec 0.2
  arrivals bursty x 0.25 window 20
end
)";

TEST(SystemText, ParsesSample) {
  const ParsedSystem r = parse_system_text(std::string(kSample));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.system.processor_count(), 2);
  EXPECT_EQ(r.system.job_count(), 2);
  EXPECT_EQ(r.system.scheduler(0), SchedulerKind::kSpp);
  EXPECT_EQ(r.system.scheduler(1), SchedulerKind::kFcfs);
  EXPECT_EQ(r.system.job(0).name, "control");
  EXPECT_DOUBLE_EQ(r.system.job(0).deadline, 3.0);
  ASSERT_EQ(r.system.job(0).chain.size(), 2u);
  EXPECT_EQ(r.system.job(0).chain[0].priority, 1);
  EXPECT_EQ(r.system.job(0).arrivals.count(), 6u);  // 0,4,8,12,16,20
  EXPECT_DOUBLE_EQ(r.system.job(1).arrivals.release(1), 0.0);
}

TEST(SystemText, ExplicitAndBurstArrivals) {
  const ParsedSystem r = parse_system_text(std::string(R"(
processors 1
job a deadline 5
  hop 0 exec 0.2 prio 1
  arrivals explicit 0 0.5 0.5 3.25
end
job b deadline 8
  hop 0 exec 0.1 prio 2
  arrivals burst count 3 gap 0.5 period 4 window 10
end
)"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.system.job(0).arrivals.count(), 4u);
  EXPECT_DOUBLE_EQ(r.system.job(0).arrivals.release(4), 3.25);
  // burst: 0, 0.5, 1.0 then steady 5.0, 9.0
  EXPECT_EQ(r.system.job(1).arrivals.count(), 5u);
  EXPECT_DOUBLE_EQ(r.system.job(1).arrivals.release(4), 5.0);
}

TEST(SystemText, PeriodicOffset) {
  const ParsedSystem r = parse_system_text(std::string(R"(
processors 1
job a deadline 5
  hop 0 exec 0.2 prio 1
  arrivals periodic period 2 window 10 offset 1.5
end
)"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.system.job(0).arrivals.release(1), 1.5);
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expect_in_error;
};

// Without this gtest prints the param as raw bytes (string-literal
// addresses), which ASLR changes on every test discovery.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class SystemTextErrors : public testing::TestWithParam<BadCase> {};

TEST_P(SystemTextErrors, ReportsLineAndReason) {
  const ParsedSystem r = parse_system_text(std::string(GetParam().text));
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find(GetParam().expect_in_error), std::string::npos)
      << "got: " << r.error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SystemTextErrors,
    testing::Values(
        BadCase{"NoProcessors", "job a deadline 1\n hop 0 exec 1 prio 1\n "
                                "arrivals explicit 0\nend\n",
                "processors"},
        BadCase{"BadScheduler", "processors 1\nscheduler 0 LIFO\n",
                "unknown scheduler"},
        BadCase{"SchedulerRange", "processors 1\nscheduler 5 SPP\n",
                "out of range"},
        BadCase{"BadDeadline", "processors 1\njob a deadline -2\n",
                "bad deadline"},
        BadCase{"DeadlineInf", "processors 1\njob a deadline inf\n",
                "bad deadline"},
        BadCase{"HopOutsideJob", "processors 1\nhop 0 exec 1\n", "outside"},
        BadCase{"ExecNan",
                "processors 1\njob a deadline 1\n hop 0 exec nan prio 1\n",
                "expected 'hop"},
        BadCase{"ExecInf",
                "processors 1\njob a deadline 1\n hop 0 exec inf prio 1\n",
                "expected 'hop"},
        BadCase{"ExplicitNan",
                "processors 1\njob a deadline 1\n hop 0 exec 1 prio 1\n "
                "arrivals explicit 0 nan\nend\n",
                "bad instant"},
        BadCase{"NegativeExec",
                "processors 1\njob a deadline 1\n hop 0 exec -1\n", "> 0"},
        BadCase{"MissingArrivals",
                "processors 1\njob a deadline 1\n hop 0 exec 1 prio 1\nend\n",
                "no arrivals"},
        BadCase{"UnsortedExplicit",
                "processors 1\njob a deadline 1\n hop 0 exec 1 prio 1\n "
                "arrivals explicit 2 1\nend\n",
                "nondecreasing"},
        BadCase{"BadBurstyRate",
                "processors 1\njob a deadline 1\n hop 0 exec 1 prio 1\n "
                "arrivals bursty x 1.5 window 5\nend\n",
                "(0,1)"},
        BadCase{"UnterminatedJob",
                "processors 1\njob a deadline 1\n hop 0 exec 1 prio 1\n "
                "arrivals explicit 0\n",
                "unterminated"},
        BadCase{"UnknownDirective", "processors 1\nfrobnicate 3\n",
                "unknown directive"},
        BadCase{"DuplicatePriority",
                "processors 1\n"
                "job a deadline 1\n hop 0 exec 1 prio 1\n arrivals explicit "
                "0\nend\n"
                "job b deadline 1\n hop 0 exec 1 prio 1\n arrivals explicit "
                "0\nend\n",
                "duplicate priority"}),
    [](const testing::TestParamInfo<BadCase>& param_info) {
      return param_info.param.name;
    });

TEST(SystemText, ErrorsCarryLineNumbers) {
  const ParsedSystem r =
      parse_system_text(std::string("processors 1\nscheduler 0 LIFO\n"));
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
}

TEST(SystemText, RoundTripPreservesSemantics) {
  JobShopConfig cfg;
  cfg.stages = 3;
  cfg.processors_per_stage = 2;
  cfg.jobs = 4;
  cfg.scheduler = SchedulerKind::kSpnp;
  Rng rng(5);
  System original = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(original);

  const ParsedSystem reparsed = parse_system_text(to_system_text(original));
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  ASSERT_EQ(reparsed.system.job_count(), original.job_count());
  ASSERT_EQ(reparsed.system.processor_count(), original.processor_count());
  for (int p = 0; p < original.processor_count(); ++p) {
    EXPECT_EQ(reparsed.system.scheduler(p), original.scheduler(p));
  }
  for (int k = 0; k < original.job_count(); ++k) {
    const Job& a = original.job(k);
    const Job& b = reparsed.system.job(k);
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.deadline, b.deadline);
    ASSERT_EQ(a.chain.size(), b.chain.size());
    for (std::size_t h = 0; h < a.chain.size(); ++h) {
      EXPECT_EQ(a.chain[h].processor, b.chain[h].processor);
      EXPECT_DOUBLE_EQ(a.chain[h].exec_time, b.chain[h].exec_time);
      EXPECT_EQ(a.chain[h].priority, b.chain[h].priority);
    }
    ASSERT_EQ(a.arrivals.count(), b.arrivals.count());
    for (std::size_t m = 1; m <= a.arrivals.count(); ++m) {
      EXPECT_DOUBLE_EQ(a.arrivals.release(m), b.arrivals.release(m));
    }
  }
}

TEST(SystemText, LoadFileReportsMissing) {
  const ParsedSystem r = load_system_file("/nonexistent/x.rts");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(CurveCsv, KnotExport) {
  const PwlCurve c = PwlCurve::step(4.0, {1.0, 3.0});
  std::ostringstream ss;
  write_curve_knots_csv(c, ss);
  EXPECT_EQ(ss.str(),
            "t,left,right\n0,0,0\n1,0,1\n3,1,2\n4,2,2\n");
}

TEST(TraceCsv, GanttAndInstanceTables) {
  System sys(1, SchedulerKind::kSpp);
  Job low;
  low.name = "Low";
  low.deadline = 10.0;
  low.chain = {{0, 4.0, 2}};
  low.arrivals = ArrivalSequence(std::vector<Time>{0.0});
  sys.add_job(std::move(low));
  Job high;
  high.name = "High";
  high.deadline = 10.0;
  high.chain = {{0, 1.0, 1}};
  high.arrivals = ArrivalSequence(std::vector<Time>{1.0});
  sys.add_job(std::move(high));
  const SimResult r = simulate(sys, 20.0);

  std::ostringstream gantt;
  write_gantt_csv(sys, r, gantt);
  // Low preempted at 1: segments [0,1], then High [1,2], then Low [2,5].
  EXPECT_EQ(gantt.str(),
            "processor,job,hop,begin,end\n"
            "P0,Low,0,0,1\n"
            "P0,High,0,1,2\n"
            "P0,Low,0,2,5\n");

  std::ostringstream inst;
  write_instances_csv(sys, r, inst);
  EXPECT_EQ(inst.str(),
            "job,instance,release,completion,response,met_deadline\n"
            "Low,1,0,5,5,yes\n"
            "High,1,1,2,1,yes\n");
}

TEST(TraceCsv, UnfinishedInstanceHasEmptyCompletion) {
  System sys(1, SchedulerKind::kSpp);
  Job j;
  j.name = "A";
  j.deadline = 10.0;
  j.chain = {{0, 5.0, 1}};
  j.arrivals = ArrivalSequence(std::vector<Time>{0.0, 1.0});
  sys.add_job(std::move(j));
  const SimResult r = simulate(sys, 6.0);
  std::ostringstream inst;
  write_instances_csv(sys, r, inst);
  EXPECT_NE(inst.str().find("A,2,1,,,no"), std::string::npos) << inst.str();
}

TEST(CurveCsv, SampledExportPreservesJumps) {
  const PwlCurve c = PwlCurve::step(4.0, {2.0});
  std::ostringstream ss;
  write_curve_samples_csv(c, ss, 4);
  const std::string out = ss.str();
  // Both sides of the jump at t = 2 appear.
  EXPECT_NE(out.find("2,0\n"), std::string::npos);
  EXPECT_NE(out.find("2,1\n"), std::string::npos);
}

}  // namespace
}  // namespace rta
