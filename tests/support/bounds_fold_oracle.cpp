#include "support/bounds_fold_oracle.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "curve/algebra.hpp"
#include "curve/transforms.hpp"

namespace rta::oracle {

void fold_priority_subjob(const System& system, SubjobRef ref, Time horizon,
                          detail::BoundStateMap& states) {
  const Subjob& sj = system.subjob(ref);
  const bool preemptive =
      system.scheduler(sj.processor) == SchedulerKind::kSpp;
  detail::BoundState& st = states.at({ref.job, ref.hop});
  const double tau = sj.exec_time;
  const double b = preemptive ? 0.0 : system.blocking_time(ref);
  const PwlCurve ident = PwlCurve::identity(horizon);

  std::vector<PwlCurve> hp_upper;
  std::vector<PwlCurve> hp_lower;
  for (const SubjobRef& hp :
       system.higher_priority_on(sj.processor, sj.priority)) {
    const detail::BoundState& hp_state = states.at({hp.job, hp.hop});
    assert(hp_state.computed);
    hp_upper.push_back(hp_state.svc_upper);
    hp_lower.push_back(hp_state.svc_lower);
  }
  // The higher-priority sums as an explicit left fold of binary curve_add,
  // kept apart from the n-ary curve_sum/curve_available kernel the
  // production path uses, so the oracle checks that kernel too.
  const auto fold_sum = [horizon](const std::vector<PwlCurve>& curves) {
    PwlCurve acc = PwlCurve::zero(horizon);
    for (const PwlCurve& c : curves) acc = curve_add(acc, c);
    return acc;
  };
  const PwlCurve hp_u = fold_sum(hp_upper);
  const PwlCurve hp_l = fold_sum(hp_lower);
  const PwlCurve c_upper = curve_scale(st.arr_upper, tau);
  const PwlCurve c_lower = curve_scale(st.arr_lower, tau);
  const PwlCurve q_lower = curve_add_constant(curve_sub(ident, hp_u), -b);
  const PwlCurve q_upper = curve_sub(ident, hp_l);

  const long long count_lower = tolerant_floor(st.arr_lower.end_value() + 0.5);
  const long long count_upper = tolerant_floor(st.arr_upper.end_value() + 0.5);

  // S̲(t) = min_i max(base_i, base_i + Q̲(t) - (s_i - S̲hp(s_i^-))).
  PwlCurve svc_lower = PwlCurve::zero(horizon);
  bool have_lower = false;
  for (long long i = 1; i <= count_lower; ++i) {
    const Time s_i = st.arr_lower.pseudo_inverse(static_cast<double>(i));
    if (std::isinf(s_i)) break;
    const double base = static_cast<double>(i - 1) * tau;
    const double offset = s_i - hp_l.eval_left(s_i);
    PwlCurve term = curve_clamp_min(
        curve_add_constant(q_lower, base - offset), base);
    svc_lower = have_lower ? curve_min(svc_lower, term) : std::move(term);
    have_lower = true;
  }
  if (!have_lower) svc_lower = PwlCurve::zero(horizon);
  svc_lower = curve_clamp_min(curve_min(svc_lower, c_lower), 0.0);
  svc_lower = tighten_lower_bound(svc_lower);

  // S̄(t) = min(t, c̄(t), min_i [base_i + min(t - s_i,
  //                          Q̄(t) - (s_i - S̄hp(s_i^-)))] for t >= s_i).
  const double big = horizon + c_upper.end_value() + 1.0;
  PwlCurve svc_upper = ident;
  for (long long i = 0; i <= count_upper; ++i) {
    Time s_i = 0.0;
    double base = 0.0;
    if (i > 0) {
      s_i = st.arr_upper.pseudo_inverse(static_cast<double>(i));
      if (std::isinf(s_i)) break;
      base = static_cast<double>(i - 1) * tau;
    }
    const PwlCurve elapsed = curve_add_constant(ident, -s_i);
    const PwlCurve drained =
        curve_add_constant(q_upper, -(s_i - hp_u.eval_left(s_i)));
    PwlCurve term = curve_add_constant(curve_min(elapsed, drained), base);
    if (time_gt(s_i, 0.0)) {
      // BIG before s_i, so the term cannot win the min there.
      const PwlCurve gate =
          time_lt(s_i, horizon)
              ? PwlCurve({{0.0, big, big}, {s_i, big, 0.0},
                          {horizon, 0.0, 0.0}})
              : PwlCurve({{0.0, big, big}, {horizon, big, 0.0}});
      term = curve_max(term, gate);
    }
    svc_upper = curve_min(svc_upper, term);
  }
  svc_upper = curve_min(svc_upper, c_upper);

  st.svc_lower = svc_lower;
  st.svc_upper = svc_upper;
  st.dep_lower = curve_floor_div(svc_lower, tau);
  st.next_arr_upper =
      curve_min(crossing_counts_per_level(svc_upper, tau),
                curve_shift_right(st.arr_upper, tau));
  st.local_bound = detail::local_delay_bound(st.dep_lower, st.arr_upper);
  st.computed = true;
}

PwlCurve crossing_counts_per_level(const PwlCurve& a, double tau) {
  assert(tau > 0.0);
  std::vector<Time> jumps;
  for (long long k = 1;; ++k) {
    const Time t = curve_first_crossing(a, static_cast<double>(k) * tau);
    if (std::isinf(t)) break;
    jumps.push_back(t);
  }
  return PwlCurve::step(a.horizon(), jumps);
}

}  // namespace rta::oracle
