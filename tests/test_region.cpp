// Parametric schedulability regions (service/region.hpp).
//
// The load-bearing property: every boundary the analyzer reports is
// *certified* -- re-running a fresh, from-scratch BoundsAnalyzer on the
// transformed system (RegionAnalyzer::apply_axes) must agree that the
// feasible endpoint is schedulable and the infeasible endpoint is not.
// That closes the loop on the incremental-probing shortcut: whatever path
// a probe took (dirty-closure what_if or full re-analysis), the verdict
// matches the reference analysis.
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "service/region.hpp"
#include "analysis/result.hpp"
#include "model/priority.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

System make_shop(std::uint64_t seed, double utilization = 0.55) {
  Rng rng(seed);
  JobShopConfig cfg;
  cfg.stages = 3;
  cfg.processors_per_stage = 2;
  cfg.jobs = 5;
  cfg.utilization = utilization;
  cfg.scheduler = SchedulerKind::kSpp;
  System system = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(system);
  return system;
}

/// Schedulability of apply_axes(base, query, values) by a fresh analyzer --
/// the independent certification path the header's determinism contract
/// names.
bool fresh_verdict(const System& base, const RegionQuery& query,
                   const std::vector<double>& values, Time horizon) {
  System sys;
  std::string error;
  EXPECT_TRUE(RegionAnalyzer::apply_axes(base, query, values, sys, error))
      << error;
  AnalysisConfig cfg;
  cfg.horizon = horizon;
  const AnalysisResult r = BoundsAnalyzer(cfg).analyze(sys);
  EXPECT_TRUE(r.ok) << r.error;
  return r.all_schedulable();
}

/// Certify a closed 1-D boundary: feasible side admits, infeasible side
/// does not, and the bracket is within tolerance.
void certify_boundary(const System& base, const RegionQuery& query,
                      const RegionResult& r) {
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.boundary.empty);
  ASSERT_FALSE(r.boundary.open);
  EXPECT_LT(r.boundary.feasible, r.boundary.infeasible);
  EXPECT_TRUE(fresh_verdict(base, query, {r.boundary.feasible}, r.horizon));
  EXPECT_FALSE(fresh_verdict(base, query, {r.boundary.infeasible}, r.horizon));
}

TEST(Region, ExecScaleBoundaryIsCertified) {
  const System base = make_shop(1);
  RegionQuery q;
  q.target = base.job(0).name;
  q.axes.push_back(RegionAxis{RegionParam::kExecScale, RegionScope::kJob, -1,
                              1.0, 64.0});
  RegionAnalyzer analyzer(base);
  const RegionResult r = analyzer.run(q);
  certify_boundary(base, q, r);
  EXPECT_LE(r.boundary.infeasible - r.boundary.feasible, q.tolerance);
  EXPECT_GT(r.probes, 2);
  EXPECT_EQ(r.probes, r.boundary.probes);
}

TEST(Region, RateScaleBoundaryIsCertified) {
  const System base = make_shop(2, /*utilization=*/0.65);
  RegionQuery q;
  q.target = base.job(1).name;
  q.axes.push_back(RegionAxis{RegionParam::kRateScale, RegionScope::kJob, -1,
                              1.0, 256.0});
  RegionAnalyzer analyzer(base);
  const RegionResult r = analyzer.run(q);
  ASSERT_TRUE(r.ok) << r.error;
  if (!r.boundary.empty && !r.boundary.open) certify_boundary(base, q, r);
}

TEST(Region, BurstBoundaryIsIntegralAndCertified) {
  const System base = make_shop(3, /*utilization=*/0.65);
  RegionQuery q;
  q.target = base.job(2).name;
  q.axes.push_back(
      RegionAxis{RegionParam::kBurst, RegionScope::kJob, -1, 0.0, 4096.0});
  RegionAnalyzer analyzer(base);
  const RegionResult r = analyzer.run(q);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.boundary.open) << "burst cap too low to close the boundary";
  ASSERT_FALSE(r.boundary.empty);
  // Burst is searched over integers: the bracket closes to adjacent counts.
  EXPECT_EQ(r.boundary.feasible, std::floor(r.boundary.feasible));
  EXPECT_EQ(r.boundary.infeasible, std::floor(r.boundary.infeasible));
  EXPECT_EQ(r.boundary.infeasible - r.boundary.feasible, 1.0);
  certify_boundary(base, q, r);
}

TEST(Region, InfeasibleAtLoIsEmpty) {
  const System base = make_shop(1);
  RegionQuery q;
  q.target = base.job(0).name;
  // Start the bracket far above the job's certified boundary.
  q.axes.push_back(RegionAxis{RegionParam::kExecScale, RegionScope::kJob, -1,
                              4096.0, 8192.0});
  RegionAnalyzer analyzer(base);
  const RegionResult r = analyzer.run(q);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.boundary.empty);
  EXPECT_FALSE(r.boundary.open);
  EXPECT_EQ(r.boundary.infeasible, 4096.0);
  EXPECT_FALSE(fresh_verdict(base, q, {4096.0}, r.horizon));
  EXPECT_EQ(r.probes, 1);  // lo infeasible short-circuits
}

TEST(Region, FeasibleAtHiIsOpen) {
  const System base = make_shop(1);
  RegionQuery q;
  q.target = base.job(0).name;
  // A bracket well inside the feasible region stays open.
  q.axes.push_back(RegionAxis{RegionParam::kExecScale, RegionScope::kJob, -1,
                              1.0, 1.01});
  RegionAnalyzer analyzer(base);
  const RegionResult r = analyzer.run(q);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.boundary.open);
  EXPECT_FALSE(r.boundary.empty);
  EXPECT_EQ(r.boundary.feasible, 1.01);
  EXPECT_TRUE(fresh_verdict(base, q, {1.01}, r.horizon));
  EXPECT_EQ(r.probes, 2);  // lo + hi, no bisection
}

/// Degenerate single-hop, single-job system: the region machinery works at
/// the smallest possible extent and the boundary is still certified.
TEST(Region, DegenerateSingleHopSystem) {
  System base(1, SchedulerKind::kSpp);
  Job solo;
  solo.name = "solo";
  solo.deadline = 10.0;
  solo.chain.push_back(Subjob{0, 2.0, 0});
  solo.arrivals = ArrivalSequence::periodic(20.0, 100.0);
  base.add_job(std::move(solo));

  RegionQuery q;
  q.target = "solo";
  q.axes.push_back(RegionAxis{RegionParam::kExecScale, RegionScope::kJob, -1,
                              1.0, 64.0});
  RegionAnalyzer analyzer(base);
  const RegionResult r = analyzer.run(q);
  certify_boundary(base, q, r);
  // An isolated 2-exec job with deadline 10 misses exactly past scale 5.
  EXPECT_LE(r.boundary.feasible, 5.0);
  EXPECT_GT(r.boundary.infeasible, 5.0 - q.tolerance);
}

TEST(Region, GlobalScopeUsesFullAnalysisPath) {
  const System base = make_shop(4, /*utilization=*/0.5);
  RegionQuery q;
  q.axes.push_back(RegionAxis{RegionParam::kExecScale, RegionScope::kGlobal,
                              -1, 1.0, 64.0});
  RegionAnalyzer analyzer(base);
  const RegionResult r = analyzer.run(q);
  certify_boundary(base, q, r);
  EXPECT_EQ(r.incremental_probes, 0);  // global axes cannot probe via what_if
}

TEST(Region, TwoDimensionalColumnsAreMonotoneAndCertified) {
  const System base = make_shop(5, /*utilization=*/0.6);
  RegionQuery q;
  q.target = base.job(0).name;
  q.axes.push_back(RegionAxis{RegionParam::kExecScale, RegionScope::kJob, -1,
                              1.0, 8.0});
  q.axes.push_back(
      RegionAxis{RegionParam::kBurst, RegionScope::kJob, -1, 0.0, 1024.0});
  q.columns = 4;
  RegionAnalyzer analyzer(base);
  const RegionResult r = analyzer.run(q);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.columns.front().value, 1.0);
  EXPECT_EQ(r.columns.back().value, 8.0);

  // Downward closure across the grid: more exec scale never admits more
  // burst. (Open columns count as unbounded.)
  double prev = std::numeric_limits<double>::infinity();
  for (const RegionColumn& col : r.columns) {
    ASSERT_FALSE(col.boundary.empty && col.boundary.open);
    const double limit = col.boundary.open
                             ? std::numeric_limits<double>::infinity()
                             : (col.boundary.empty ? -1.0
                                                   : col.boundary.feasible);
    EXPECT_LE(limit, prev) << "column at " << col.value;
    prev = limit;
    if (!col.boundary.empty && !col.boundary.open) {
      EXPECT_TRUE(fresh_verdict(base, q,
                                {col.value, col.boundary.feasible},
                                r.horizon));
      EXPECT_FALSE(fresh_verdict(base, q,
                                 {col.value, col.boundary.infeasible},
                                 r.horizon));
    }
  }
}

/// Both axes global: every probe takes the full-system analysis path.
RegionQuery global_2d_query() {
  RegionQuery q;
  q.axes.push_back(RegionAxis{RegionParam::kExecScale, RegionScope::kGlobal,
                              -1, 1.0, 4.0});
  q.axes.push_back(RegionAxis{RegionParam::kRateScale, RegionScope::kGlobal,
                              -1, 1.0, 8.0});
  q.columns = 4;
  return q;
}

/// The 2-D fan-out contract: serial and parallel column probing serialize
/// to the same bytes (region_result_value is deterministic field-for-field),
/// on the incremental path (job-scoped axes) and on the full-system path
/// (global axes).
TEST(Region, TwoDimensionalParallelMatchesSerialByteForByte) {
  const System base = make_shop(6, /*utilization=*/0.6);
  RegionQuery job_query;
  job_query.target = base.job(1).name;
  job_query.axes.push_back(RegionAxis{RegionParam::kExecScale,
                                      RegionScope::kJob, -1, 1.0, 6.0});
  job_query.axes.push_back(
      RegionAxis{RegionParam::kBurst, RegionScope::kJob, -1, 0.0, 512.0});
  job_query.columns = 6;

  for (const RegionQuery& q : {job_query, global_2d_query()}) {
    std::string dumps[2];
    const int threads[2] = {1, 0};  // serial vs hardware concurrency
    for (int i = 0; i < 2; ++i) {
      service::SessionConfig cfg;
      cfg.analysis.threads = threads[i];
      RegionAnalyzer analyzer(base, cfg);
      const RegionResult r = analyzer.run(q);
      ASSERT_TRUE(r.ok) << r.error;
      dumps[i] = region_result_value(r).dump();
    }
    EXPECT_EQ(dumps[0], dumps[1]);
  }
}

/// The column pool is the only pool on the 2-D path: a column's
/// full-system analyzer runs serially, so no engine pool loop runs.
TEST(Region, TwoDimensionalColumnsStartNoNestedPool) {
  const System base = make_shop(6, /*utilization=*/0.6);
  obs::MetricsRegistry metrics;
  service::SessionConfig cfg;
  cfg.analysis.threads = 2;
  cfg.analysis.observer.metrics = &metrics;
  RegionAnalyzer analyzer(base, cfg);
  const RegionResult r = analyzer.run(global_2d_query());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.probes, 0);
  const obs::MetricsSnapshot snap = metrics.snapshot();
  const auto loops = snap.counters.find("pool.loops");
  ASSERT_NE(loops, snap.counters.end());
  EXPECT_EQ(loops->second, 0u);
}

TEST(Region, ValidationRejectsBadQueries) {
  const System base = make_shop(1);
  RegionAnalyzer analyzer(base);

  RegionQuery no_axes;
  EXPECT_FALSE(analyzer.run(no_axes).ok);

  RegionQuery bad_target;
  bad_target.target = "ghost";
  bad_target.axes.push_back(RegionAxis{});
  const RegionResult r = analyzer.run(bad_target);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "no job named 'ghost'");

  RegionQuery no_target;  // job-scoped axis without a target
  no_target.axes.push_back(RegionAxis{});
  EXPECT_FALSE(analyzer.run(no_target).ok);

  RegionQuery bad_bracket;
  bad_bracket.target = base.job(0).name;
  bad_bracket.axes.push_back(RegionAxis{RegionParam::kExecScale,
                                        RegionScope::kJob, -1, 5.0, 2.0});
  EXPECT_FALSE(analyzer.run(bad_bracket).ok);

  RegionQuery bad_burst_scope;
  bad_burst_scope.axes.push_back(RegionAxis{
      RegionParam::kBurst, RegionScope::kGlobal, -1, 0.0, 8.0});
  EXPECT_FALSE(analyzer.run(bad_burst_scope).ok);

  RegionQuery bad_processor;
  bad_processor.axes.push_back(RegionAxis{
      RegionParam::kExecScale, RegionScope::kProcessor, 99, 1.0, 8.0});
  EXPECT_FALSE(analyzer.run(bad_processor).ok);
}

}  // namespace
}  // namespace rta
