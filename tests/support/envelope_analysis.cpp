#include "support/envelope_analysis.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <utility>

#include "analysis/order.hpp"
#include "curve/algebra.hpp"

namespace rta {

namespace {

/// Local bounds above this many evaluation spans are reported as infinity.
constexpr double kDivergenceFactor = 4.0;

/// Slope of the final segment of a curve (its tail behavior).
double end_slope(const PwlCurve& c) {
  const CurveView v = c.view();
  if (v.n < 2) return 0.0;
  return (v.l[v.n - 1] - v.r[v.n - 2]) / (v.t[v.n - 1] - v.t[v.n - 2]);
}

/// Workload envelope alpha(D) * tau materialized on [0, full_span]: the
/// envelope's curve up to its span, then its tail rate -- keeping the true
/// long-run slope visible to the stability check in horizontal_deviation.
PwlCurve workload_on(const ArrivalEnvelope& env, double tau, Time full_span) {
  std::vector<Knot> knots;
  const CurveView v = env.curve().view();
  for (std::size_t i = 0; i < v.n; ++i) {
    if (time_gt(v.t[i], full_span)) break;
    knots.push_back({v.t[i], v.l[i] * tau, v.r[i] * tau});
  }
  if (knots.empty()) knots.push_back({0.0, 0.0, 0.0});
  if (!time_eq(knots.back().t, full_span)) {
    const double end = env.eval(full_span) * tau;
    knots.push_back({full_span, end, end});
  }
  return PwlCurve(std::move(knots));
}

}  // namespace

Time horizontal_deviation(const PwlCurve& alpha_workload, const PwlCurve& beta,
                          Time cap) {
  // Tail stability: if the demand's long-run slope strictly exceeds the
  // service slope the deviation grows without bound. (Equal slopes keep it
  // constant past the horizon, so the endpoint candidates below cover it.)
  if (alpha_workload.end_value() > kValueEps &&
      end_slope(alpha_workload) > end_slope(beta) + 1e-12) {
    return kTimeInfinity;
  }

  // Candidate window lengths: knots of the demand curve and the preimages of
  // the service curve's knot values (kinks of beta^{-1} compose in).
  std::vector<Time> candidates;
  candidates.push_back(0.0);
  const CurveView av = alpha_workload.view();
  for (std::size_t i = 0; i < av.n; ++i) candidates.push_back(av.t[i]);
  const CurveView bv = beta.view();
  for (std::size_t i = 0; i < bv.n; ++i) {
    const Time d = curve_first_crossing(alpha_workload, bv.r[i]);
    if (std::isfinite(d)) candidates.push_back(d);
  }

  Time worst = 0.0;
  for (Time d : candidates) {
    if (time_gt(d, alpha_workload.horizon())) continue;
    const double demand = alpha_workload.eval(d);
    if (demand <= kValueEps) continue;
    const Time completion = curve_first_crossing(beta, demand);
    if (std::isinf(completion)) return kTimeInfinity;
    worst = std::max(worst, completion - d);
    if (worst > cap) return kTimeInfinity;
  }
  return worst;
}

EnvelopeResult EnvelopeAnalyzer::analyze(
    const System& system, const std::vector<ArrivalEnvelope>& envelopes) const {
  EnvelopeResult result;
  if (static_cast<int>(envelopes.size()) != system.job_count()) {
    result.error = "need exactly one envelope per job";
    return result;
  }
  if (auto invalid = system.validation_error()) {
    result.error = std::move(*invalid);
    return result;
  }
  const auto order = dependency_order(system);
  if (!order) {
    result.error = "cyclic dependency graph; envelope analysis requires an "
                   "acyclic system";
    return result;
  }

  Time span = 1.0;
  for (const ArrivalEnvelope& e : envelopes) span = std::max(span, e.span());
  const Time cap = kDivergenceFactor * span;
  const Time beta_span = span + cap;

  // Per-subjob envelope at its hop (jitter-propagated along the chain).
  std::map<std::pair<int, int>, std::optional<ArrivalEnvelope>> hop_env;
  std::map<std::pair<int, int>, Time> local_bound;
  for (int k = 0; k < system.job_count(); ++k) {
    hop_env[{k, 0}] = envelopes[k];
  }

  auto subjob_envelope =
      [&](SubjobRef r) -> const std::optional<ArrivalEnvelope>& {
    return hop_env.at({r.job, r.hop});
  };

  for (const SubjobRef& ref : order->order) {
    if (local_bound.count({ref.job, ref.hop})) continue;
    const Subjob& sj = system.subjob(ref);
    const int p = sj.processor;

    if (system.scheduler(p) == SchedulerKind::kFcfs) {
      // Aggregate FIFO: one delay bound for every subjob on the processor.
      PwlCurve aggregate = PwlCurve::zero(beta_span);
      bool unknown = false;
      for (const SubjobRef& r : system.subjobs_on(p)) {
        const auto& env = subjob_envelope(r);
        if (!env) {
          unknown = true;
          break;
        }
        aggregate = curve_add(
            aggregate,
            workload_on(*env, system.subjob(r).exec_time, beta_span));
      }
      const Time d =
          unknown ? kTimeInfinity
                  : horizontal_deviation(aggregate,
                                         PwlCurve::identity(beta_span), cap);
      for (const SubjobRef& r : system.subjobs_on(p)) {
        if (local_bound.count({r.job, r.hop})) continue;
        if (!subjob_envelope(r)) continue;  // predecessor diverged
        local_bound[{r.job, r.hop}] = d;
        const int next = r.hop + 1;
        if (next < static_cast<int>(system.job(r.job).chain.size())) {
          const double tau = system.subjob(r).exec_time;
          hop_env[{r.job, next}] =
              std::isinf(d) ? std::nullopt
                            : std::make_optional(subjob_envelope(r)->with_jitter(
                                  std::max<Time>(0.0, d - tau)));
        }
      }
      continue;
    }

    // Static priority (SPP: b = 0; SPNP: Eq. 15 blocking).
    const auto& env = subjob_envelope(ref);
    Time d = kTimeInfinity;
    if (env) {
      const bool preemptive = system.scheduler(p) == SchedulerKind::kSpp;
      const double b = preemptive ? 0.0 : system.blocking_time(ref);
      PwlCurve interference = PwlCurve::zero(beta_span);
      bool unknown = false;
      for (const SubjobRef& hp :
           system.higher_priority_on(p, sj.priority)) {
        const auto& hp_env = subjob_envelope(hp);
        if (!hp_env) {
          unknown = true;
          break;
        }
        interference = curve_add(
            interference,
            workload_on(*hp_env, system.subjob(hp).exec_time, beta_span));
      }
      if (!unknown) {
        PwlCurve beta = curve_sub(PwlCurve::identity(beta_span), interference);
        if (b > 0.0) beta = curve_add_constant(beta, -b);
        // A strict service curve may be replaced by its running max: any
        // window of length D contains every shorter window, so the max over
        // shorter lengths is also guaranteed.
        beta = curve_running_max(curve_clamp_min(beta, 0.0));
        d = horizontal_deviation(workload_on(*env, sj.exec_time, beta_span),
                                 beta, cap);
      }
    }
    local_bound[{ref.job, ref.hop}] = d;
    const int next = ref.hop + 1;
    if (next < static_cast<int>(system.job(ref.job).chain.size())) {
      hop_env[{ref.job, next}] =
          (env && std::isfinite(d))
              ? std::make_optional(
                    env->with_jitter(std::max<Time>(0.0, d - sj.exec_time)))
              : std::nullopt;
    }
  }

  result.ok = true;
  result.jobs.resize(system.job_count());
  for (int k = 0; k < system.job_count(); ++k) {
    EnvelopeJobReport& report = result.jobs[k];
    Time total = 0.0;
    for (int h = 0; h < static_cast<int>(system.job(k).chain.size()); ++h) {
      const Time d = local_bound.at({k, h});
      report.hop_bounds.push_back(d);
      total += d;
    }
    report.wcrt = total;
    report.schedulable =
        std::isfinite(total) && time_le(total, system.job(k).deadline);
  }
  return result;
}

EnvelopeResult EnvelopeAnalyzer::analyze_from_traces(
    const System& system) const {
  std::vector<ArrivalEnvelope> envelopes;
  const Time span = std::max<Time>(system.last_release(), 1.0);
  envelopes.reserve(system.job_count());
  for (int k = 0; k < system.job_count(); ++k) {
    envelopes.push_back(
        ArrivalEnvelope::from_trace(system.job(k).arrivals, span));
  }
  return analyze(system, envelopes);
}

}  // namespace rta
