#include "support/literal_bounds.hpp"

#include <cassert>
#include <utility>
#include <vector>

#include "analysis/order.hpp"
#include "curve/algebra.hpp"
#include "curve/curve_arena.hpp"
#include "curve/transforms.hpp"
#include "support/bounds_fold_oracle.hpp"

namespace rta::literal {

PwlCurve curve_right_running_min(const PwlCurve& a) {
  assert(a.is_continuous());
  const Time h = a.horizon();
  // Reflect: g(u) = -a(h - u). A knot (t, l, r) of `a` becomes a knot
  // (h - t, -r, -l) of g (the approach direction flips, so left and right
  // swap and negate). Segments map onto segments.
  const CurveView v = a.view();
  CurveArena& arena = tls_curve_arena();
  arena.clear();
  arena.reserve(v.n);
  for (std::size_t i = v.n; i-- > 0;) {
    arena.push(h - v.t[i], -v.r[i], -v.l[i]);
  }
  // The reflected first knot sits at u = 0; its left limit is pinned to its
  // right value by finalize().
  const PwlCurve m = curve_running_max(PwlCurve(arena.finalize()));
  // Reflect back: R(t) = -M(h - t).
  const CurveView mv = m.view();
  arena.clear();
  arena.reserve(mv.n);
  for (std::size_t i = mv.n; i-- > 0;) {
    arena.push(h - mv.t[i], -mv.r[i], -mv.l[i]);
  }
  return PwlCurve(arena.finalize());
}

namespace {

/// Eqs. 16-19 as printed for one subjob on an SPP (b = 0) or SPNP
/// processor, with the same inputs and outputs as
/// detail::compute_single_priority_subjob. Interference terms use the
/// higher-priority service LOWER bounds in both availabilities; the lower
/// bound lags its min-window by the blocking b; no demand caps.
void literal_priority_subjob(const System& system, SubjobRef ref,
                             Time horizon, detail::BoundStateMap& states) {
  const Subjob& sj = system.subjob(ref);
  const bool preemptive =
      system.scheduler(sj.processor) == SchedulerKind::kSpp;
  detail::BoundState& st = states.at({ref.job, ref.hop});
  const double tau = sj.exec_time;
  const double b = preemptive ? 0.0 : system.blocking_time(ref);
  const PwlCurve ident = PwlCurve::identity(horizon);

  std::vector<PwlCurve> hp_lower;
  for (const SubjobRef& hp :
       system.higher_priority_on(sj.processor, sj.priority)) {
    const detail::BoundState& hp_state = states.at({hp.job, hp.hop});
    assert(hp_state.computed);
    hp_lower.push_back(hp_state.svc_lower);
  }
  // t - sum S̲_hp(t), in one kernel pass.
  const PwlCurve hp_free = curve_available(ident, hp_lower);

  const PwlCurve c_upper = curve_scale(st.arr_upper, tau);
  const PwlCurve c_lower = curve_scale(st.arr_lower, tau);

  // Eq. 17: B(t) = t - b - sum S̲_hp(t) for t > b, else 0. The sum of
  // lower-bound curves can make this non-monotone; our transform needs a
  // nondecreasing availability, so monotonize from below (this only
  // *increases* the literal bound, i.e. never hides its optimism).
  PwlCurve avail_lower = hp_free;
  if (b > 0.0) avail_lower = curve_add_constant(avail_lower, -b);
  avail_lower = curve_running_max(curve_clamp_min(avail_lower, 0.0));
  // Eq. 16: S̲(t) = min_{0<=s<=t-b}{ B(t) - B(s) + c(s) }.
  const PwlCurve svc_lower = service_transform(avail_lower, c_lower, b);

  // Eq. 19: B̄(t) = t - sum S̲_hp(t); Eq. 18 with the same min form.
  const PwlCurve avail_upper =
      curve_clamp_min(curve_right_running_min(hp_free), 0.0);
  const PwlCurve svc_upper = service_transform(avail_upper, c_upper);

  st.svc_lower = tighten_lower_bound(svc_lower);
  st.svc_upper = svc_upper;
  // Lemma 1 / Lemma 2 as printed: counting curves straight from the bounds.
  st.dep_lower = oracle::crossing_counts_per_level(st.svc_lower, tau);
  st.next_arr_upper = oracle::crossing_counts_per_level(svc_upper, tau);
  st.local_bound = detail::local_delay_bound(st.dep_lower, st.arr_upper);
  st.computed = true;
}

}  // namespace

AnalysisResult analyze(const System& system, const AnalysisConfig& config) {
  AnalysisResult rejected;
  if (auto invalid = system.validation_error()) {
    rejected.error = std::move(*invalid);
    return rejected;
  }
  const auto order = dependency_order(system);
  if (!order) {
    rejected.error = "subjob dependency graph has a cycle";
    return rejected;
  }
  for (int p = 0; p < system.processor_count(); ++p) {
    if (system.scheduler(p) == SchedulerKind::kFcfs) {
      rejected.error = "the printed Theorems 5/6 cover SPP/SPNP processors";
      return rejected;
    }
  }

  return analyze_doubling_horizon(
      default_horizon(system, config), config.max_horizon_doublings,
      [&](Time horizon) {
        detail::BoundStateMap states;
        for (const SubjobRef& ref : order->order) {
          // Arrival bounds exactly as the sound wavefront fills them.
          states.try_emplace({ref.job, ref.hop});
          detail::fill_hop_arrivals(system, ref, horizon, states);
          literal_priority_subjob(system, ref, horizon, states);
        }
        return detail::bounds_result_from_states(
            system, horizon, config.record_curves, states);
      });
}

}  // namespace rta::literal
