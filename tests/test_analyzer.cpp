// The rta::Analyzer facade (analysis/analyzer.hpp): engine selection,
// name round trips, and bit-identity with directly constructed engines.
#include <string>

#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "analysis/bounds.hpp"
#include "analysis/iterative.hpp"
#include "analysis/order.hpp"
#include "analysis/spp_exact.hpp"
#include "model/priority.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

System shop(SchedulerKind scheduler, std::uint64_t seed) {
  JobShopConfig cfg;
  cfg.stages = 2;
  cfg.processors_per_stage = 1;
  cfg.jobs = 3;
  cfg.utilization = 0.5;
  cfg.scheduler = scheduler;
  Rng rng(seed);
  System system = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(system);
  return system;
}

TEST(Analyzer, EngineKindNamesRoundTrip) {
  for (const EngineKind kind :
       {EngineKind::kAuto, EngineKind::kSppExact, EngineKind::kBounds,
        EngineKind::kIterative, EngineKind::kHolistic}) {
    const auto back = parse_engine_kind(engine_kind_name(kind));
    ASSERT_TRUE(back.has_value()) << engine_kind_name(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(parse_engine_kind("exact").has_value());
  EXPECT_FALSE(parse_engine_kind("").has_value());
}

TEST(Analyzer, AutoPicksStrongestApplicableEngine) {
  const Analyzer analyzer;
  EXPECT_EQ(analyzer.select_engine(shop(SchedulerKind::kSpp, 1)),
            EngineKind::kSppExact);
  EXPECT_EQ(analyzer.select_engine(shop(SchedulerKind::kSpnp, 2)),
            EngineKind::kBounds);
  EXPECT_EQ(analyzer.select_engine(shop(SchedulerKind::kFcfs, 3)),
            EngineKind::kBounds);

  // Force a dependency cycle: a job flowing stage 1 -> stage 0 that is
  // lowest-priority on processor 1 (existing hops -> its hop 0) but
  // highest-priority on processor 0 (its hop 1 -> existing hops), closing a
  // loop through the two chains.
  System cyclic = shop(SchedulerKind::kSpnp, 4);
  Job back;
  back.name = "backflow";
  back.deadline = 50.0;
  back.chain.push_back(Subjob{1, 0.05, 90});
  back.chain.push_back(Subjob{0, 0.05, -1});
  back.arrivals = ArrivalSequence::periodic(10.0, 40.0);
  cyclic.add_job(back);
  ASSERT_FALSE(dependency_order(cyclic).has_value());
  EXPECT_EQ(analyzer.select_engine(cyclic), EngineKind::kIterative);
}

TEST(Analyzer, MatchesDirectEnginesBitwise) {
  AnalysisConfig cfg;
  const Analyzer analyzer(cfg);

  const System spp = shop(SchedulerKind::kSpp, 5);
  std::string used;
  const AnalysisResult facade = analyzer.analyze(spp, EngineKind::kAuto, &used);
  const AnalysisResult direct = ExactSppAnalyzer(cfg).analyze(spp);
  EXPECT_EQ(used, ExactSppAnalyzer::name());
  ASSERT_TRUE(facade.ok && direct.ok);
  ASSERT_EQ(facade.jobs.size(), direct.jobs.size());
  for (std::size_t k = 0; k < facade.jobs.size(); ++k) {
    EXPECT_EQ(facade.jobs[k].wcrt, direct.jobs[k].wcrt) << k;
  }

  const System spnp = shop(SchedulerKind::kSpnp, 6);
  const AnalysisResult fb = analyzer.analyze(spnp, EngineKind::kBounds, &used);
  const AnalysisResult db = BoundsAnalyzer(cfg).analyze(spnp);
  EXPECT_EQ(used, BoundsAnalyzer::name());
  ASSERT_TRUE(fb.ok && db.ok);
  for (std::size_t k = 0; k < fb.jobs.size(); ++k) {
    EXPECT_EQ(fb.jobs[k].wcrt, db.jobs[k].wcrt) << k;
  }
}

TEST(Analyzer, MethodDispatchMatchesAnalyzeWith) {
  AnalysisConfig cfg;
  const Analyzer analyzer(cfg);
  for (const Method m : {Method::kSppExact, Method::kSpnpApp, Method::kFcfsApp,
                         Method::kSppApp}) {
    System system = shop(method_scheduler(m), 7);
    const AnalysisResult a = analyzer.analyze(system, m);
    const AnalysisResult b = analyze_with(m, system, cfg);
    ASSERT_EQ(a.ok, b.ok) << method_name(m);
    ASSERT_EQ(a.jobs.size(), b.jobs.size()) << method_name(m);
    for (std::size_t k = 0; k < a.jobs.size(); ++k) {
      EXPECT_EQ(a.jobs[k].wcrt, b.jobs[k].wcrt) << method_name(m) << " " << k;
    }
  }
}

TEST(Analyzer, ReusesEnginesAcrossCalls) {
  AnalysisConfig cfg;
  cfg.threads = 2;  // give the facade's bounds engine a pool worth reusing
  const Analyzer analyzer(cfg);
  const System a = shop(SchedulerKind::kSpnp, 8);
  const System b = shop(SchedulerKind::kFcfs, 9);
  const AnalysisResult ra = analyzer.analyze(a, EngineKind::kBounds);
  const AnalysisResult rb = analyzer.analyze(b, EngineKind::kBounds);
  EXPECT_TRUE(ra.ok);
  EXPECT_TRUE(rb.ok);
  // Fresh single-shot analyzers agree: reuse is invisible in the results.
  const AnalysisResult fa = BoundsAnalyzer(cfg).analyze(a);
  for (std::size_t k = 0; k < ra.jobs.size(); ++k) {
    EXPECT_EQ(ra.jobs[k].wcrt, fa.jobs[k].wcrt) << k;
  }
}

}  // namespace
}  // namespace rta
