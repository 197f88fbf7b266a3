// Property tests: analysis vs discrete-event simulation on randomized job
// shops. These validate the paper's theorems empirically:
//
//   * SPP/Exact (Thms 1-3) matches the simulator instance-for-instance;
//   * the bounds analyzers (Thms 4-9) dominate simulated response times;
//   * lower/upper service bounds bracket the observed service curves;
//   * the holistic baseline dominates the simulation and coincides with the
//     exact analysis on single-stage shops (the paper's §5.2 observation).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/bounds.hpp"
#include "analysis/holistic.hpp"
#include "analysis/spp_exact.hpp"
#include "eval/validation.hpp"
#include "model/priority.hpp"
#include "sim/simulator.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

struct ShopCase {
  std::size_t stages;
  std::size_t procs;
  std::size_t jobs;
  ArrivalPattern pattern;
  double utilization;
};

std::string case_name(const testing::TestParamInfo<ShopCase>& info) {
  const ShopCase& c = info.param;
  std::string name = "s";
  name += std::to_string(c.stages);
  name += "p";
  name += std::to_string(c.procs);
  name += "j";
  name += std::to_string(c.jobs);
  name += c.pattern == ArrivalPattern::kPeriodic ? "per" : "aper";
  name += "u";
  name += std::to_string(static_cast<int>(c.utilization * 100));
  return name;
}

System make_shop(const ShopCase& c, std::uint64_t seed,
                 SchedulerKind scheduler) {
  JobShopConfig cfg;
  cfg.stages = c.stages;
  cfg.processors_per_stage = c.procs;
  cfg.jobs = c.jobs;
  cfg.pattern = c.pattern;
  cfg.utilization = c.utilization;
  cfg.window_periods = 6.0;
  cfg.scheduler = scheduler;
  cfg.min_rate = 0.15;
  Rng rng(seed);
  System sys = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(sys);
  return sys;
}

class ShopProperty : public testing::TestWithParam<ShopCase> {};

constexpr std::uint64_t kSeeds = 8;

TEST_P(ShopProperty, ExactSppMatchesSimulationPerInstance) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const System sys = make_shop(GetParam(), seed, SchedulerKind::kSpp);
    const AnalysisResult r = ExactSppAnalyzer().analyze(sys);
    ASSERT_TRUE(r.ok) << r.error;
    const SimResult s = simulate(sys, r.horizon);
    for (int k = 0; k < sys.job_count(); ++k) {
      ASSERT_EQ(r.jobs[k].per_instance.size(), s.traces[k].size());
      for (std::size_t m = 0; m < s.traces[k].size(); ++m) {
        const Time simulated = s.traces[k][m].completed()
                                   ? s.traces[k][m].response()
                                   : kTimeInfinity;
        const Time analyzed = r.jobs[k].per_instance[m];
        if (std::isinf(simulated) || std::isinf(analyzed)) {
          EXPECT_EQ(std::isinf(simulated), std::isinf(analyzed))
              << "seed " << seed << " job " << k << " instance " << m;
        } else {
          EXPECT_NEAR(analyzed, simulated, 1e-6)
              << "seed " << seed << " job " << k << " instance " << m;
        }
      }
    }
  }
}

TEST_P(ShopProperty, ExactServiceCurveMatchesSimulation) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const System sys = make_shop(GetParam(), seed, SchedulerKind::kSpp);
    AnalysisConfig cfg;
    cfg.record_curves = true;
    const AnalysisResult r = ExactSppAnalyzer(cfg).analyze(sys);
    ASSERT_TRUE(r.ok) << r.error;
    const SimResult s = simulate(sys, r.horizon);
    if (!s.all_completed) continue;  // service beyond horizon truncated
    for (int k = 0; k < sys.job_count(); ++k) {
      for (std::size_t h = 0; h < sys.job(k).chain.size(); ++h) {
        const PwlCurve& analyzed =
            r.jobs[k].hops[h].curves[0].service_upper;
        const PwlCurve observed =
            s.service_curve({k, static_cast<int>(h)});
        EXPECT_LE(analyzed.max_abs_difference(observed), 1e-6)
            << "seed " << seed << " job " << k << " hop " << h;
      }
    }
  }
}

// The approximate analyzers must never report a bound below an observed
// response (soundness of Theorems 4-9 with the fixes documented in
// bounds.hpp/DESIGN.md).
TEST_P(ShopProperty, SppAppBoundsDominateSimulation) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const System sys = make_shop(GetParam(), seed, SchedulerKind::kSpp);
    const ValidationReport rep =
        validate_method(Method::kSppApp, sys, AnalysisConfig{});
    ASSERT_TRUE(rep.analysis_ok) << rep.error;
    EXPECT_TRUE(rep.bounds_hold())
        << "seed " << seed << " min slack " << rep.min_slack();
  }
}

TEST_P(ShopProperty, SpnpBoundsDominateSimulation) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const System sys = make_shop(GetParam(), seed, SchedulerKind::kSpnp);
    const ValidationReport rep =
        validate_method(Method::kSpnpApp, sys, AnalysisConfig{});
    ASSERT_TRUE(rep.analysis_ok) << rep.error;
    EXPECT_TRUE(rep.bounds_hold())
        << "seed " << seed << " min slack " << rep.min_slack();
  }
}

TEST_P(ShopProperty, FcfsBoundsDominateSimulation) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const System sys = make_shop(GetParam(), seed, SchedulerKind::kFcfs);
    const ValidationReport rep =
        validate_method(Method::kFcfsApp, sys, AnalysisConfig{});
    ASSERT_TRUE(rep.analysis_ok) << rep.error;
    EXPECT_TRUE(rep.bounds_hold())
        << "seed " << seed << " min slack " << rep.min_slack();
  }
}

// Bounds analyzers' service curves must bracket the observed service.
TEST_P(ShopProperty, ServiceBoundsBracketSimulation) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (SchedulerKind kind :
         {SchedulerKind::kSpnp, SchedulerKind::kFcfs}) {
      const System sys = make_shop(GetParam(), seed, kind);
      AnalysisConfig cfg;
      cfg.record_curves = true;
      const AnalysisResult r = BoundsAnalyzer(cfg).analyze(sys);
      ASSERT_TRUE(r.ok) << r.error;
      const SimResult s = simulate(sys, r.horizon);
      if (!s.all_completed) continue;
      for (int k = 0; k < sys.job_count(); ++k) {
        for (std::size_t h = 0; h < sys.job(k).chain.size(); ++h) {
          const SubjobCurves& c = r.jobs[k].hops[h].curves[0];
          const PwlCurve observed =
              s.service_curve({k, static_cast<int>(h)});
          for (const Knot& knot : observed.knots()) {
            const double sim_v = observed.eval(knot.t);
            EXPECT_LE(c.service_lower.eval(knot.t), sim_v + 1e-6)
                << to_string(kind) << " seed " << seed << " job " << k
                << " hop " << h << " t=" << knot.t;
          }
        }
      }
    }
  }
}

// SPP exact never exceeds the approximate SPP bound (the ablation): the
// approximation is an over-approximation of the same system.
TEST_P(ShopProperty, ExactDominatedByApproximateSpp) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const System sys = make_shop(GetParam(), seed, SchedulerKind::kSpp);
    const AnalysisResult exact = ExactSppAnalyzer().analyze(sys);
    const AnalysisResult approx = BoundsAnalyzer().analyze(sys);
    ASSERT_TRUE(exact.ok && approx.ok);
    for (int k = 0; k < sys.job_count(); ++k) {
      if (std::isinf(approx.jobs[k].wcrt)) continue;
      EXPECT_LE(exact.jobs[k].wcrt, approx.jobs[k].wcrt + 1e-6)
          << "seed " << seed << " job " << k;
    }
  }
}

// Heterogeneous systems (§6: "different processors run different
// schedulers"): random per-processor scheduler mix, bounds must still
// dominate the simulation.
TEST_P(ShopProperty, MixedSchedulerBoundsDominateSimulation) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    System sys = make_shop(GetParam(), seed, SchedulerKind::kSpp);
    Rng rng(seed * 977 + 5);
    for (int p = 0; p < sys.processor_count(); ++p) {
      const int pick = rng.uniform_int(0, 2);
      sys.set_scheduler(p, pick == 0   ? SchedulerKind::kSpp
                            : pick == 1 ? SchedulerKind::kSpnp
                                        : SchedulerKind::kFcfs);
    }
    assign_proportional_deadline_monotonic(sys);
    const AnalysisResult r = BoundsAnalyzer().analyze(sys);
    ASSERT_TRUE(r.ok) << r.error;
    const SimResult s = simulate(sys, r.horizon);
    for (int k = 0; k < sys.job_count(); ++k) {
      if (std::isinf(r.jobs[k].wcrt)) continue;
      const Time observed = s.worst_response[k];
      EXPECT_GE(r.jobs[k].wcrt, observed - 1e-6)
          << "seed " << seed << " job " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shops, ShopProperty,
    testing::Values(
        ShopCase{1, 1, 3, ArrivalPattern::kPeriodic, 0.5},
        ShopCase{1, 2, 4, ArrivalPattern::kPeriodic, 0.7},
        ShopCase{2, 2, 4, ArrivalPattern::kPeriodic, 0.5},
        ShopCase{4, 2, 6, ArrivalPattern::kPeriodic, 0.4},
        ShopCase{4, 2, 6, ArrivalPattern::kPeriodic, 0.8},
        ShopCase{1, 1, 3, ArrivalPattern::kAperiodic, 0.5},
        ShopCase{2, 2, 4, ArrivalPattern::kAperiodic, 0.6},
        ShopCase{4, 2, 6, ArrivalPattern::kAperiodic, 0.4},
        ShopCase{3, 1, 5, ArrivalPattern::kAperiodic, 0.7}),
    case_name);

// Holistic baseline: dominates simulation (it bounds the worst case over all
// phasings) and coincides with the exact analysis on single-stage shops
// (§5.2: "for a single processor system, both methods predict the same
// response time" -- the generated trace is synchronous, i.e. worst-case).
TEST(HolisticVsExact, DominatesSimulationOnPeriodicShops) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const System sys = make_shop({2, 2, 4, ArrivalPattern::kPeriodic, 0.5},
                                 seed, SchedulerKind::kSpp);
    const ValidationReport rep =
        validate_method(Method::kSppSL, sys, AnalysisConfig{});
    ASSERT_TRUE(rep.analysis_ok) << rep.error;
    EXPECT_TRUE(rep.bounds_hold())
        << "seed " << seed << " min slack " << rep.min_slack();
  }
}

TEST(HolisticVsExact, EqualOnSingleStage) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const System sys = make_shop({1, 1, 4, ArrivalPattern::kPeriodic, 0.6},
                                 seed, SchedulerKind::kSpp);
    const AnalysisResult exact = ExactSppAnalyzer().analyze(sys);
    const AnalysisResult holistic = HolisticAnalyzer().analyze(sys);
    ASSERT_TRUE(exact.ok) << exact.error;
    ASSERT_TRUE(holistic.ok) << holistic.error;
    for (int k = 0; k < sys.job_count(); ++k) {
      if (std::isinf(holistic.jobs[k].wcrt)) continue;
      EXPECT_NEAR(exact.jobs[k].wcrt, holistic.jobs[k].wcrt, 1e-6)
          << "seed " << seed << " job " << k;
    }
  }
}

TEST(HolisticVsExact, NeverTighterThanExactMultiStage) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const System sys = make_shop({3, 2, 5, ArrivalPattern::kPeriodic, 0.5},
                                 seed, SchedulerKind::kSpp);
    const AnalysisResult exact = ExactSppAnalyzer().analyze(sys);
    const AnalysisResult holistic = HolisticAnalyzer().analyze(sys);
    ASSERT_TRUE(exact.ok && holistic.ok);
    for (int k = 0; k < sys.job_count(); ++k) {
      if (std::isinf(holistic.jobs[k].wcrt)) continue;
      EXPECT_LE(exact.jobs[k].wcrt, holistic.jobs[k].wcrt + 1e-6)
          << "seed " << seed << " job " << k;
    }
  }
}

TEST(HolisticVsExact, RejectsAperiodicArrivals) {
  const System sys = make_shop({2, 1, 3, ArrivalPattern::kAperiodic, 0.5}, 1,
                               SchedulerKind::kSpp);
  const AnalysisResult r = HolisticAnalyzer().analyze(sys);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace rta
