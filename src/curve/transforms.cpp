#include "curve/transforms.hpp"

#include <cassert>
#include <cmath>

namespace rta {

PwlCurve service_transform(const PwlCurve& availability,
                           const PwlCurve& workload, Time lag) {
  assert(lag >= 0.0);
  assert(availability.is_nondecreasing());
  assert(workload.is_nondecreasing());
  assert(std::fabs(availability.eval(0.0)) <= kValueEps);

  // M(u) = max_{0<=s<=u}( A(s) - c(s^-) ).  curve_running_max of (A - c)
  // takes the sup over left limits and values; since A is continuous and c
  // only jumps upward, left limits dominate everywhere except possibly at
  // s = 0, where c(0^-) = 0 regardless of an arrival at 0. Clamping by
  // A(0) - 0 = 0 restores the s = 0 term.
  PwlCurve m = curve_running_max(curve_sub(availability, workload));
  m = curve_clamp_min(m, 0.0);
  if (lag > 0.0) m = curve_shift_right(m, lag);
  PwlCurve s = curve_sub(availability, m);
  s = curve_clamp_min(s, 0.0);
  if (lag > 0.0 && time_lt(lag, s.horizon())) {
    // By definition the service is 0 on [0, lag]; the shifted M still yields
    // A(t) - M(0) there, which can be positive. Zero the prefix by taking the
    // min with a curve that is 0 on [0, lag] and huge afterwards.
    const double big =
        std::fabs(s.end_value()) + availability.end_value() + 1.0;
    s = curve_min(s, PwlCurve({{0.0, 0.0, 0.0},
                               {lag, 0.0, big},
                               {s.horizon(), big, big}}));
  }
  // The exact SPP instantiation is provably nondecreasing; the bound
  // instantiations (Thms 5/6) need not be. Lower bounds are tightened by the
  // caller via tighten_lower_bound; upper bounds are consumed through
  // first-crossing queries which are sound without monotonization.
  return s;
}

PwlCurve availability_minus(Time horizon,
                            const std::vector<PwlCurve>& consumed) {
  const PwlCurve ident = PwlCurve::identity(horizon);
  if (consumed.empty()) return ident;
  const PwlCurve a = curve_clamp_min(curve_available(ident, consumed), 0.0);
  assert(a.is_nondecreasing());
  return a;
}

PwlCurve tighten_lower_bound(const PwlCurve& lb) {
  return curve_running_max(lb);
}

}  // namespace rta
