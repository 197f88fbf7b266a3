// Randomized differential harness for the parallel analysis engine and the
// iterative engine's pass-skip memo (Choi/Oh/Ha's cross-validation idea
// turned into a test): on a few hundred random job-shop systems the parallel
// engines must return BIT-IDENTICAL end-to-end bounds d_k and per-hop bounds
// d_{k,j} to the serial engine, for every thread count, and every pass the
// memo skipped must equal the pass recomputed. Exact double equality -- not
// approximate -- because the engine's determinism contract promises the
// same arithmetic, not merely close results.
#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "analysis/iterative.hpp"
#include "analysis/order.hpp"
#include "model/priority.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

constexpr int kSystemsPerScheduler = 70;  // 3 schedulers -> 210 systems total

std::vector<int> thread_counts() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> counts = {1, 2};
  if (hw > 2) counts.push_back(static_cast<int>(hw));
  return counts;
}

System random_system(Rng& rng, SchedulerKind scheduler) {
  JobShopConfig cfg;
  cfg.stages = static_cast<std::size_t>(rng.uniform_int(1, 3));
  cfg.processors_per_stage = static_cast<std::size_t>(rng.uniform_int(1, 2));
  cfg.jobs = static_cast<std::size_t>(rng.uniform_int(2, 5));
  cfg.pattern = rng.uniform_int(0, 1) == 0 ? ArrivalPattern::kPeriodic
                                           : ArrivalPattern::kAperiodic;
  cfg.utilization = rng.uniform(0.3, 1.1);
  cfg.window_periods = 4.0;
  cfg.deadline.period_multiple = rng.uniform(2.0, 4.0);
  cfg.scheduler = scheduler;
  System system = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(system);
  return system;
}

/// Bitwise comparison of everything the analysis reports: d_k (wcrt),
/// d_{k,j} (local bounds), schedulability, and the horizon used.
void expect_bit_identical(const AnalysisResult& serial,
                          const AnalysisResult& other,
                          const std::string& label) {
  ASSERT_EQ(serial.ok, other.ok) << label;
  if (!serial.ok) return;
  ASSERT_EQ(serial.jobs.size(), other.jobs.size()) << label;
  EXPECT_EQ(serial.horizon, other.horizon) << label;
  for (std::size_t k = 0; k < serial.jobs.size(); ++k) {
    const JobReport& a = serial.jobs[k];
    const JobReport& b = other.jobs[k];
    // NaN never appears (bounds are sums of finite or +inf terms); plain ==
    // therefore tests bit-identity including the infinity cases.
    EXPECT_EQ(a.wcrt, b.wcrt) << label << " job " << k;
    EXPECT_EQ(a.schedulable, b.schedulable) << label << " job " << k;
    ASSERT_EQ(a.hops.size(), b.hops.size()) << label << " job " << k;
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].local_bound, b.hops[h].local_bound)
          << label << " job " << k << " hop " << h;
    }
  }
}

AnalysisConfig engine_config(int threads) {
  AnalysisConfig cfg;
  cfg.threads = threads;
  return cfg;
}

void run_differential(SchedulerKind scheduler, std::uint64_t base_seed) {
  const RngFactory factory(base_seed);
  const std::vector<int> counts = thread_counts();
  for (int trial = 0; trial < kSystemsPerScheduler; ++trial) {
    Rng rng = factory.stream(static_cast<std::uint64_t>(trial));
    const System system = random_system(rng, scheduler);

    const AnalysisConfig serial_cfg = engine_config(1);
    const AnalysisResult serial_direct =
        BoundsAnalyzer(serial_cfg).analyze(system);
    const AnalysisResult serial_iterative =
        IterativeBoundsAnalyzer(serial_cfg).analyze(system);

    for (const int threads : counts) {
      const AnalysisConfig cfg = engine_config(threads);
      const std::string label = std::string(to_string(scheduler)) + " trial " +
                                std::to_string(trial) + " threads " +
                                std::to_string(threads);
      expect_bit_identical(serial_direct, BoundsAnalyzer(cfg).analyze(system),
                           "direct " + label);
      expect_bit_identical(serial_iterative,
                           IterativeBoundsAnalyzer(cfg).analyze(system),
                           "iterative " + label);
    }
  }
}

TEST(DifferentialEngine, SppParallelMatchesSerial) {
  run_differential(SchedulerKind::kSpp, 0xD1FF5EED);
}

TEST(DifferentialEngine, SpnpParallelMatchesSerial) {
  run_differential(SchedulerKind::kSpnp, 0xD1FF5EED ^ 0xBEEF);
}

TEST(DifferentialEngine, FcfsParallelMatchesSerial) {
  run_differential(SchedulerKind::kFcfs, 0xD1FF5EED ^ 0xF0F0);
}

/// random_system plus a copy of job 0 that runs its stages in reverse: with
/// two or more stages the copy and job 0 disturb each other in both
/// directions (a logical loop, paper §6), so the fixed point takes rounds.
System random_cyclic_system(Rng& rng, SchedulerKind scheduler) {
  System system = random_system(rng, scheduler);
  Job reversed = system.job(0);
  reversed.name += "_rev";
  reversed.id = 0;
  std::reverse(reversed.chain.begin(), reversed.chain.end());
  system.add_job(std::move(reversed));
  assign_proportional_deadline_monotonic(system);
  return system;
}

// The iterative engine skips a processor pass whose arrival inputs are
// bitwise unchanged since it last ran. Skipping is exact only if the
// retained outputs are what a fresh pass would compute: re-running every
// processor pass from the fixed point's final arrival bounds must reproduce
// the service, departure and delay bounds the engine reports, bit for bit.
TEST(DifferentialEngine, SkippedPassesEqualRecomputedPasses) {
  obs::MetricsRegistry registry;
  AnalysisConfig cfg;
  cfg.record_curves = true;
  cfg.observer.metrics = &registry;
  const IterativeBoundsAnalyzer engine(cfg);
  const RngFactory factory(0x5C1F);
  int checked = 0;
  for (const SchedulerKind scheduler :
       {SchedulerKind::kSpp, SchedulerKind::kSpnp, SchedulerKind::kFcfs}) {
    for (int trial = 0; trial < 20; ++trial) {
      Rng rng = factory.stream(static_cast<std::uint64_t>(trial));
      const System system = trial % 2 == 0
                                ? random_system(rng, scheduler)
                                : random_cyclic_system(rng, scheduler);
      const AnalysisResult result = engine.analyze(system);
      ASSERT_TRUE(result.ok) << result.error;
      const std::string label = std::string(to_string(scheduler)) +
                                " trial " + std::to_string(trial);

      detail::BoundStateMap states;
      for (int k = 0; k < system.job_count(); ++k) {
        for (const SubjobReport& hop : result.jobs[k].hops) {
          detail::BoundState& st = states[{hop.ref.job, hop.ref.hop}];
          st.arr_upper = hop.curves.at(0).arrival_upper;
          st.arr_lower = hop.curves.at(0).arrival_lower;
        }
      }
      for (int p = 0; p < system.processor_count(); ++p) {
        detail::compute_processor_bounds(system, p, result.horizon, states);
      }
      for (int k = 0; k < system.job_count(); ++k) {
        for (const SubjobReport& hop : result.jobs[k].hops) {
          const detail::BoundState& st = states.at({hop.ref.job, hop.ref.hop});
          const SubjobCurves& kept = hop.curves.at(0);
          const std::string where = label + " job " + std::to_string(k) +
                                    " hop " + std::to_string(hop.ref.hop);
          EXPECT_TRUE(curves_identical(st.svc_upper, kept.service_upper))
              << where;
          EXPECT_TRUE(curves_identical(st.svc_lower, kept.service_lower))
              << where;
          EXPECT_TRUE(curves_identical(st.dep_lower, kept.departure_lower))
              << where;
          EXPECT_EQ(st.local_bound, hop.local_bound) << where;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(registry.snapshot().counters.at("iterative.passes_skipped"), 0u);
}

// The fast what-if path runs only the lower part of a candidate's last hop
// (bounds.hpp). That is exact only if S̲, f̲_dep and d_{k,j} read nothing
// the upper part writes: on every priority subjob of generated SPP and SPNP
// shops, the lower part alone, fed the full wavefront's arrival bounds and
// higher-priority states, must reproduce the full unit's lower outputs bit
// for bit and leave the state uncomputed.
TEST(DifferentialEngine, LowerPartAloneMatchesFullUnit) {
  const RngFactory factory(0x10E4);
  int checked = 0;
  for (const SchedulerKind scheduler :
       {SchedulerKind::kSpp, SchedulerKind::kSpnp}) {
    for (int trial = 0; trial < 30; ++trial) {
      Rng rng = factory.stream(static_cast<std::uint64_t>(trial));
      const System system = random_system(rng, scheduler);
      std::string error;
      const auto order = checked_dependency_order(system, error);
      ASSERT_TRUE(order.has_value()) << error;
      const Time horizon = default_horizon(system, AnalysisConfig{});
      detail::BoundStateMap states;
      detail::run_bounds_wavefront(system, *order, horizon, /*pool=*/nullptr,
                                   /*eobs=*/nullptr, /*dirty=*/nullptr, states);
      const std::string label = std::string(to_string(scheduler)) +
                                " trial " + std::to_string(trial);
      for (const auto& [key, full] : states) {
        const SubjobRef ref{key.first, key.second};
        detail::BoundState lower_only;
        lower_only.arr_upper = full.arr_upper;
        lower_only.arr_lower = full.arr_lower;
        const detail::HpOperands hp =
            detail::priority_hp_operands(system, ref, horizon, states);
        detail::priority_lower_part(hp, system.subjob(ref).exec_time, horizon,
                                    lower_only);
        const std::string where = label + " job " + std::to_string(ref.job) +
                                  " hop " + std::to_string(ref.hop);
        EXPECT_TRUE(curves_identical(lower_only.svc_lower, full.svc_lower))
            << where;
        EXPECT_TRUE(curves_identical(lower_only.dep_lower, full.dep_lower))
            << where;
        EXPECT_EQ(lower_only.local_bound, full.local_bound) << where;
        EXPECT_FALSE(lower_only.computed) << where;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

}  // namespace
}  // namespace rta
