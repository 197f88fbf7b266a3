// Min-plus algebra operators on piecewise-linear curves.
//
// The (min,+) dioid underlies the service-function calculus (Cruz [20,21]):
//
//   convolution    (f (*) g)(t) = inf_{0<=s<=t} { f(s) + g(t-s) }
//   deconvolution  (f (/) g)(t) = sup_{0<=u<=H-t} { f(t+u) - g(u) }
//
// Convolution composes service guarantees of tandem servers and smooths
// arrival envelopes; deconvolution bounds the output envelope of a server
// (alpha (/) beta). Both are exact here: the inf/sup of piecewise-linear
// expressions is attained at knot-derived candidates, all of which are
// enumerated. Complexity is O(n * m * (n + m)) in the operand knot counts --
// fine for envelope-sized curves (tens of knots), not meant for the
// trace-sized curves of the exact analyzers.
// rta-archcheck: allow(test-only-src) public min-plus operator API
#pragma once

#include "curve/pwl_curve.hpp"

namespace rta {

/// Min-plus convolution on the common horizon (asserted equal).
[[nodiscard]] PwlCurve min_plus_convolution(const PwlCurve& f,
                                            const PwlCurve& g);

/// Min-plus deconvolution on the common horizon. The sup runs over the
/// window lengths u for which f(t+u) is known (t + u <= horizon), which is
/// the exact operator for curves that are complete on their horizon (e.g.
/// envelopes with their tail materialized).
[[nodiscard]] PwlCurve min_plus_deconvolution(const PwlCurve& f,
                                              const PwlCurve& g);

}  // namespace rta
