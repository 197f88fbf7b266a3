// Tests for the evaluation harness: method plumbing, admission-probability
// experiments (reproducibility, monotonicity, method ordering), validation
// reports, and the CSV writer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "eval/validation.hpp"
#include "model/priority.hpp"
#include "support/csv.hpp"
#include "support/experiment.hpp"

namespace rta {
namespace {

AdmissionConfig small_config() {
  AdmissionConfig cfg;
  cfg.shop.stages = 2;
  cfg.shop.processors_per_stage = 2;
  cfg.shop.jobs = 4;
  cfg.shop.window_periods = 5.0;
  cfg.shop.min_rate = 0.2;
  cfg.shop.deadline.period_multiple = 2.0;
  cfg.utilizations = {0.3, 0.8};
  cfg.methods = {Method::kSppExact, Method::kSpnpApp, Method::kFcfsApp};
  cfg.trials = 40;
  cfg.seed = 7;
  cfg.threads = 4;
  return cfg;
}

TEST(Methods, NamesAndSchedulers) {
  EXPECT_STREQ(method_name(Method::kSppExact), "SPP/Exact");
  EXPECT_STREQ(method_name(Method::kSppSL), "SPP/S&L");
  EXPECT_STREQ(method_name(Method::kSpnpApp), "SPNP/App");
  EXPECT_STREQ(method_name(Method::kFcfsApp), "FCFS/App");
  EXPECT_STREQ(method_name(Method::kSppApp), "SPP/App");
  EXPECT_EQ(method_scheduler(Method::kSppExact), SchedulerKind::kSpp);
  EXPECT_EQ(method_scheduler(Method::kSppSL), SchedulerKind::kSpp);
  EXPECT_EQ(method_scheduler(Method::kSpnpApp), SchedulerKind::kSpnp);
  EXPECT_EQ(method_scheduler(Method::kFcfsApp), SchedulerKind::kFcfs);
}

TEST(Admission, GridShapeAndTrials) {
  const AdmissionConfig cfg = small_config();
  const auto points = run_admission_experiment(cfg);
  ASSERT_EQ(points.size(), 6u);
  for (const AdmissionPoint& p : points) {
    EXPECT_EQ(p.trials, 40u);
    EXPECT_LE(p.admitted, p.trials);
    EXPECT_GE(p.probability(), 0.0);
    EXPECT_LE(p.probability(), 1.0);
  }
}

TEST(Admission, ReproducibleAcrossThreadCounts) {
  AdmissionConfig cfg = small_config();
  cfg.trials = 24;
  cfg.threads = 1;
  const auto serial = run_admission_experiment(cfg);
  cfg.threads = 8;
  const auto parallel = run_admission_experiment(cfg);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].admitted, parallel[i].admitted) << "point " << i;
  }
}

TEST(Admission, ProbabilityFallsWithUtilization) {
  const auto points = run_admission_experiment(small_config());
  // points are utilization-major: [u0 x 3 methods, u1 x 3 methods].
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_GE(points[m].probability() + 1e-12, points[3 + m].probability())
        << "method " << method_name(points[m].method);
  }
}

TEST(Admission, ExactSppDominatesApproximateMethods) {
  // The exact SPP analysis admits at least as many sets as SPNP/App and
  // FCFS/App at every utilization (§5.2's consistent ordering).
  const auto points = run_admission_experiment(small_config());
  for (std::size_t u = 0; u < 2; ++u) {
    const auto& exact = points[u * 3 + 0];
    const auto& spnp = points[u * 3 + 1];
    const auto& fcfs = points[u * 3 + 2];
    EXPECT_GE(exact.admitted, spnp.admitted);
    EXPECT_GE(exact.admitted, fcfs.admitted);
  }
}

TEST(Admission, HolisticNeverBeatsExact) {
  AdmissionConfig cfg = small_config();
  cfg.methods = {Method::kSppExact, Method::kSppSL};
  cfg.trials = 30;
  const auto points = run_admission_experiment(cfg);
  for (std::size_t u = 0; u < 2; ++u) {
    EXPECT_GE(points[u * 2 + 0].admitted, points[u * 2 + 1].admitted);
  }
}

TEST(Admission, HolisticInapplicableToAperiodicCountsAsReject) {
  AdmissionConfig cfg = small_config();
  cfg.shop.pattern = ArrivalPattern::kAperiodic;
  cfg.methods = {Method::kSppSL};
  cfg.trials = 10;
  cfg.utilizations = {0.2};
  const auto points = run_admission_experiment(cfg);
  EXPECT_EQ(points[0].admitted, 0u);
}

TEST(Validation, ReportSlackAndBoundsHold) {
  ValidationReport rep;
  rep.jobs.push_back({"A", 5.0, 2.0, 3.0});
  rep.jobs.push_back({"B", 5.0, 1.0, 4.0});
  EXPECT_DOUBLE_EQ(rep.min_slack(), 1.0);
  EXPECT_TRUE(rep.bounds_hold());
  rep.jobs.push_back({"C", 5.0, 4.0, 3.5});
  EXPECT_FALSE(rep.bounds_hold());

  // Bound 0 against an observed 1e-6 is a slack of exactly -1e-6, which
  // holds; one ulp more observed makes it the next double below, which fails.
  ValidationReport edge;
  edge.jobs.push_back({"A", 5.0, 1e-6, 0.0});
  ASSERT_EQ(edge.min_slack(), -1e-6);
  EXPECT_TRUE(edge.bounds_hold());
  edge.jobs[0].simulated_worst = std::nextafter(1e-6, 1.0);
  ASSERT_EQ(edge.min_slack(), std::nextafter(-1e-6, -1.0));
  EXPECT_FALSE(edge.bounds_hold());
}

TEST(Validation, InfiniteBoundNeverViolates) {
  ValidationReport rep;
  rep.jobs.push_back({"A", 5.0, 2.0, kTimeInfinity});
  EXPECT_TRUE(rep.bounds_hold());
  // Skipped, not counted: the finite job alone sets the slack.
  rep.jobs.push_back({"B", 5.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(rep.min_slack(), 1.0);
  // But an unfinished simulation with a finite bound does violate.
  ValidationReport bad;
  bad.jobs.push_back({"A", 5.0, kTimeInfinity, 3.0});
  EXPECT_FALSE(bad.bounds_hold());
}

TEST(Validation, ValidateMethodIsAnalyzeSimulateCompare) {
  JobShopConfig shop;
  shop.stages = 3;
  shop.jobs = 5;
  shop.pattern = ArrivalPattern::kAperiodic;
  shop.scheduler = SchedulerKind::kSpnp;
  shop.min_rate = 0.2;
  Rng rng(11);
  System sys = generate_jobshop(shop, rng);
  assign_proportional_deadline_monotonic(sys);

  const AnalysisResult analysis = analyze_with(Method::kSpnpApp, sys, {});
  ASSERT_TRUE(analysis.ok) << analysis.error;
  ASSERT_GT(analysis.horizon, 0.0);
  const ValidationReport parts = compare_with_simulation(
      sys, analysis, simulate(sys, analysis.horizon));
  const ValidationReport whole = validate_method(Method::kSpnpApp, sys, {});
  EXPECT_EQ(whole.method, Method::kSpnpApp);
  ASSERT_EQ(whole.jobs.size(), 5u);
  ASSERT_EQ(parts.jobs.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(whole.jobs[k].job_name, parts.jobs[k].job_name);
    EXPECT_EQ(whole.jobs[k].analyzed_bound, parts.jobs[k].analyzed_bound);
    EXPECT_EQ(whole.jobs[k].simulated_worst, parts.jobs[k].simulated_worst);
  }
  EXPECT_TRUE(whole.bounds_hold());

  // A failed analysis carries its error and no jobs.
  AnalysisResult failed;
  failed.error = "not applicable";
  const ValidationReport none = compare_with_simulation(sys, failed, {});
  EXPECT_FALSE(none.analysis_ok);
  EXPECT_EQ(none.error, "not applicable");
  EXPECT_TRUE(none.jobs.empty());
}

TEST(Csv, QuotingAndLayout) {
  CsvWriter w({"name", "value"});
  w.add(std::string("plain"), 1.5);
  w.add(std::string("com,ma"), 2);
  w.add(std::string("qu\"ote"), 3);
  std::ostringstream ss;
  w.write(ss);
  EXPECT_EQ(ss.str(),
            "name,value\nplain,1.5\n\"com,ma\",2\n\"qu\"\"ote\",3\n");
  EXPECT_EQ(w.row_count(), 3u);
}

}  // namespace
}  // namespace rta
