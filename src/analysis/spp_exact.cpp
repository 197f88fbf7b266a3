#include "analysis/spp_exact.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "curve/algebra.hpp"
#include "curve/transforms.hpp"

namespace rta {

namespace {

/// Per-subjob state during the sweep.
struct NodeState {
  PwlCurve arrival;    // f_arr (exact)
  PwlCurve service;    // S (Theorem 3)
  PwlCurve departure;  // f_dep (Theorem 2)
  bool done = false;
};

}  // namespace

AnalysisResult ExactSppAnalyzer::analyze(const System& system) const {
  for (int p = 0; p < system.processor_count(); ++p) {
    if (system.scheduler(p) != SchedulerKind::kSpp) {
      AnalysisResult r;
      r.error = "ExactSppAnalyzer requires SPP on every processor";
      return r;
    }
  }
  AnalysisResult rejected;
  const auto order = checked_dependency_order(system, rejected.error);
  if (!order) return rejected;

  return analyze_doubling_horizon(
      default_horizon(system, config_), config_.max_horizon_doublings,
      [&](Time horizon) { return analyze_at(system, *order, horizon); });
}

AnalysisResult ExactSppAnalyzer::analyze_at(const System& system,
                                            const DependencyOrder& order,
                                            Time horizon) const {
  std::map<std::pair<int, int>, NodeState> state;

  for (const SubjobRef& ref : order.order) {
    const Subjob& sj = system.subjob(ref);
    NodeState node;

    // Arrival function: Def. 1 for the first hop; the direct-synchronization
    // identity f_{k,j,dep} = f_{k,j+1,arr} afterwards.
    if (ref.hop == 0) {
      node.arrival = system.job(ref.job).arrivals.to_curve(horizon);
    } else {
      node.arrival = state.at({ref.job, ref.hop - 1}).departure;
    }

    // Workload function c = f_arr * tau (Def. 3 / Eq. 1).
    const PwlCurve workload = curve_scale(node.arrival, sj.exec_time);

    // Availability A (Eq. 10): full processor time minus the service given
    // to higher-priority subjobs on the same processor.
    std::vector<PwlCurve> hp_services;
    for (const SubjobRef& hp :
         system.higher_priority_on(sj.processor, sj.priority)) {
      hp_services.push_back(state.at({hp.job, hp.hop}).service);
    }
    const PwlCurve avail = availability_minus(horizon, hp_services);

    // Theorem 3: S(t) = min_{0<=s<=t}{ A(t) - A(s) + c(s^-) }.
    node.service = service_transform(avail, workload);
    // Theorem 2: f_dep(t) = floor(S(t) / tau).
    node.departure = curve_floor_div(node.service, sj.exec_time);
    node.done = true;
    state[{ref.job, ref.hop}] = std::move(node);
  }

  AnalysisResult result;
  result.ok = true;
  result.horizon = horizon;
  result.jobs.resize(system.job_count());

  for (int k = 0; k < system.job_count(); ++k) {
    const Job& job = system.job(k);
    const int last_hop = static_cast<int>(job.chain.size()) - 1;
    const PwlCurve& last_dep = state.at({k, last_hop}).departure;

    JobReport& report = result.jobs[k];
    report.per_instance.reserve(job.arrivals.count());
    Time worst = 0.0;
    // Theorem 1: d_k = max_m ( f^{-1}_dep(m) - f^{-1}_arr(m) ).
    PinvSweep completion_of(last_dep);
    for (std::size_t m = 1; m <= job.arrivals.count(); ++m) {
      const Time completion = completion_of.next(static_cast<double>(m));
      const Time response = std::isinf(completion)
                                ? kTimeInfinity
                                : completion - job.arrivals.release(m);
      report.per_instance.push_back(response);
      worst = std::max(worst, response);
    }
    report.wcrt = worst;
    report.schedulable = time_le(worst, job.deadline);

    report.hops.resize(job.chain.size());
    for (int h = 0; h <= last_hop; ++h) {
      report.hops[h].ref = {k, h};
      if (config_.record_curves) {
        const NodeState& node = state.at({k, h});
        SubjobCurves curves;
        curves.arrival_upper = node.arrival;
        curves.arrival_lower = node.arrival;
        curves.service_upper = node.service;
        curves.service_lower = node.service;
        curves.departure_lower = node.departure;
        report.hops[h].curves.push_back(std::move(curves));
      }
    }
  }
  return result;
}

}  // namespace rta
