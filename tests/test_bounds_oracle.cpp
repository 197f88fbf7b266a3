// Differential test of the closed-form Theorem 5/6 service bounds against
// the per-arrival fold they replace (tests/support/bounds_fold_oracle), and
// a complexity guard on the closed forms' kernel-call count.
//
// The comparison is per analysis unit: the engine runs one wavefront, then
// every static-priority subjob is recomputed by the oracle from the SAME
// inputs (its arrival bounds and the engine's higher-priority service
// bounds). That isolates each unit, so a difference is the closed form's
// and not one inherited through an upstream counting curve.
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "curve/kernel_hooks.hpp"
#include "support/bounds_fold_oracle.hpp"
#include "util/rng.hpp"

namespace rta {
namespace {

constexpr double kTol = 1e-9;

/// First-hop arrivals with about `n` releases: Eq. 27 bursts, a
/// leaky-bucket burst then periodic, or plain periodic with an offset.
/// Returns the asymptotic period through `period`.
ArrivalSequence random_arrivals(Rng& rng, int n, double& period) {
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const double x = rng.uniform(0.2, 0.9);
      period = 1.0 / x;
      return ArrivalSequence::bursty_eq27(x, (n - 1) * period);
    }
    case 1: {
      period = rng.uniform(1.0, 4.0);
      const auto burst = static_cast<std::size_t>(rng.uniform_int(1, 12));
      return ArrivalSequence::burst_then_periodic(
          burst, rng.uniform(0.0, 0.5) * period, period, n * period);
    }
    default:
      period = rng.uniform(1.0, 4.0);
      return ArrivalSequence::periodic(period, (n - 1) * period,
                                       rng.uniform(0.0, 1.0) * period);
  }
}

/// 1-3 processors, 2-4 jobs of 1-3 hops; job 0 carries `big_n` arrivals,
/// the others up to 30. Priorities are unique system-wide.
System random_system(Rng& rng, SchedulerKind kind, int big_n) {
  const int procs = rng.uniform_int(1, 3);
  System sys(procs, kind);
  const int jobs = rng.uniform_int(2, 4);
  int priority = 1;
  for (int k = 0; k < jobs; ++k) {
    Job job;
    job.name = "j";
    job.name += std::to_string(k);
    const int n = k == 0 ? big_n : rng.uniform_int(1, 30);
    double period = 1.0;
    job.arrivals = random_arrivals(rng, n, period);
    const double share = rng.uniform(0.03, 0.2);
    const int hops = rng.uniform_int(1, 3);
    for (int h = 0; h < hops; ++h) {
      job.chain.push_back({rng.uniform_int(0, procs - 1),
                           share * period * rng.uniform(0.5, 1.5),
                           priority++});
    }
    job.deadline = 1e6;
    sys.add_job(job);
  }
  return sys;
}

std::string label(int seed, SubjobRef ref) {
  return "seed " + std::to_string(seed) + " job " + std::to_string(ref.job) +
         " hop " + std::to_string(ref.hop);
}

/// Counts the differential's coverage so the test can assert it is real.
struct Coverage {
  int units = 0;
  int blocked_units = 0;  // SPNP units with b > 0
  int multi_hop_units = 0;
  std::size_t max_arrivals = 0;
};

void expect_units_match_oracle(const System& sys, int seed, Coverage& cov) {
  const Time horizon = default_horizon(sys, AnalysisConfig{});
  detail::BoundStateMap states;
  detail::run_bounds_wavefront(sys, *dependency_order(sys), horizon, nullptr,
                               nullptr, nullptr, states);
  for (int k = 0; k < sys.job_count(); ++k) {
    for (int h = 0; h < static_cast<int>(sys.job(k).chain.size()); ++h) {
      const SubjobRef ref{k, h};
      detail::BoundStateMap folded = states;  // O(1) curve handle copies
      oracle::fold_priority_subjob(sys, ref, horizon, folded);
      const detail::BoundState& fast = states.at({k, h});
      const detail::BoundState& slow = folded.at({k, h});
      const std::string where = label(seed, ref);
      EXPECT_LE(fast.svc_lower.max_abs_difference(slow.svc_lower), kTol)
          << where;
      EXPECT_LE(fast.svc_upper.max_abs_difference(slow.svc_upper), kTol)
          << where;
      EXPECT_LE(fast.dep_lower.max_abs_difference(slow.dep_lower), kTol)
          << where;
      EXPECT_LE(fast.next_arr_upper.max_abs_difference(slow.next_arr_upper),
                kTol)
          << where;
      if (std::isinf(slow.local_bound)) {
        EXPECT_TRUE(std::isinf(fast.local_bound)) << where;
      } else {
        EXPECT_NEAR(fast.local_bound, slow.local_bound, kTol) << where;
      }
      ++cov.units;
      if (h > 0) ++cov.multi_hop_units;
      if (sys.scheduler(sys.subjob(ref).processor) == SchedulerKind::kSpnp &&
          sys.blocking_time(ref) > 0.0) {
        ++cov.blocked_units;
      }
      cov.max_arrivals = std::max(
          cov.max_arrivals, static_cast<std::size_t>(
                                fast.arr_upper.end_value() + 0.5));
    }
  }
}

void run_differential(SchedulerKind kind, int first_seed) {
  const int sizes[] = {5, 20, 60, 150, 500};
  Coverage cov;
  for (int c = 0; c < 15; ++c) {
    const int seed = first_seed + c;
    Rng rng(static_cast<std::uint64_t>(seed));
    const System sys = random_system(rng, kind, sizes[c % 5]);
    expect_units_match_oracle(sys, seed, cov);
  }
  EXPECT_GE(cov.units, 60);
  EXPECT_GE(cov.multi_hop_units, 20);
  EXPECT_GE(cov.max_arrivals, 450u);
  if (kind == SchedulerKind::kSpnp) {
    EXPECT_GE(cov.blocked_units, 20);
  }
}

TEST(BoundsOracle, SppClosedFormMatchesFold) {
  run_differential(SchedulerKind::kSpp, 1000);
}

TEST(BoundsOracle, SpnpClosedFormMatchesFold) {
  run_differential(SchedulerKind::kSpnp, 2000);
}

class PointwiseCounter : public curve::KernelHooks {
 public:
  void on_pointwise(std::size_t) override { ++calls; }
  void on_pinv() override {}
  int calls = 0;
};

/// Pointwise kernel calls of the lowest-priority SPP unit below `hp_count`
/// higher-priority jobs, when every job has n bursty arrivals.
int lo_unit_pointwise_calls(int n, int hp_count = 1) {
  System sys(1, SchedulerKind::kSpp);
  Job hi;
  hi.deadline = 1e6;
  hi.arrivals = ArrivalSequence::bursty_eq27(0.5, 2.0 * (n - 1));
  for (int k = 0; k < hp_count; ++k) {
    hi.name = "hi" + std::to_string(k);
    hi.chain = {{0, 0.4 / hp_count, k + 1}};
    sys.add_job(hi);
  }
  Job lo = hi;
  lo.name = "lo";
  lo.chain = {{0, 0.3, hp_count + 1}};
  lo.arrivals = ArrivalSequence::burst_then_periodic(8, 0.1, 2.0, 2.0 * n);
  const int lo_job = sys.add_job(lo);
  const Time horizon = default_horizon(sys, AnalysisConfig{});
  detail::BoundStateMap states;
  detail::run_bounds_wavefront(sys, *dependency_order(sys), horizon, nullptr,
                               nullptr, nullptr, states);
  EXPECT_GE(states.at({lo_job, 0}).arr_upper.end_value(), n - 1.0);
  PointwiseCounter counter;
  curve::KernelHooksScope scope(&counter);
  detail::compute_single_priority_subjob(sys, {lo_job, 0}, horizon, states);
  return counter.calls;
}

TEST(BoundsOracle, UnitKernelCallsIndependentOfArrivalCount) {
  const int small = lo_unit_pointwise_calls(50);
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, lo_unit_pointwise_calls(800));
}

TEST(BoundsOracle, UnitKernelCallsIndependentOfHigherPriorityCount) {
  // Q̲ and Q̄ are one fused pass each over the higher-priority curves, so
  // outranking subjobs add knots to those passes but no kernel calls.
  const int few = lo_unit_pointwise_calls(50, 2);
  EXPECT_GT(few, 0);
  EXPECT_EQ(few, lo_unit_pointwise_calls(50, 12));
}

}  // namespace
}  // namespace rta
