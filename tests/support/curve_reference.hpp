// Legacy knot-walking reference kernels -- the differential oracle -- and
// the per-point ladder references of the grid kernels (namespace ladderref,
// at the end of this file).
//
// These are the pre-SoA implementations of the curve constructor pipeline
// and the hot kernels, transplanted verbatim to operate on plain
// std::vector<Knot>. They exist so tests/test_curve_kernels.cpp and
// bench/micro_curve.cpp can run the flat kernels and the historical
// knot-by-knot code side by side and require bit-identical results.
//
// Do NOT "improve" these functions: their value is that they reproduce the
// old behavior exactly, including every tolerance decision and accumulation
// order. They live in the test-only rta_test_support library; nothing under
// src/ links them.
#pragma once

#include <vector>

#include "curve/algebra.hpp"
#include "curve/pwl_curve.hpp"

namespace rta::legacyref {

/// A legacy curve is just its normalized knot vector.
using Curve = std::vector<Knot>;

/// The legacy PwlCurve(std::vector<Knot>) constructor pipeline: anchor at
/// t = 0, merge time_eq abscissae, drop collinear continuous interior knots,
/// pin the first left limit.
[[nodiscard]] Curve make_curve(std::vector<Knot> knots);

[[nodiscard]] Time horizon(const Curve& c);
[[nodiscard]] double end_value(const Curve& c);

/// Legacy PwlCurve::eval / eval_left / pseudo_inverse.
[[nodiscard]] double eval(const Curve& c, Time t);
[[nodiscard]] double eval_left(const Curve& c, Time t);
[[nodiscard]] Time pseudo_inverse(const Curve& c, double y);

/// Legacy pointwise combine (algebra.cpp): merged grid + crossing insertion.
[[nodiscard]] Curve add(const Curve& a, const Curve& b);
[[nodiscard]] Curve sub(const Curve& a, const Curve& b);
[[nodiscard]] Curve min(const Curve& a, const Curve& b);
[[nodiscard]] Curve max(const Curve& a, const Curve& b);

[[nodiscard]] Curve scale(const Curve& a, double factor);
[[nodiscard]] Curve add_constant(const Curve& a, double value);
[[nodiscard]] Curve clamp_min(const Curve& a, double floor_value);
[[nodiscard]] Curve shift_right(const Curve& a, Time dt);

/// Legacy curve_running_max: the Theorem-3 min-scan's core loop.
[[nodiscard]] Curve running_max(const Curve& a);

/// Legacy service_transform (transforms.cpp): the full Theorem-3 min-scan
/// composed from the legacy pieces above.
[[nodiscard]] Curve service_transform(const Curve& availability,
                                      const Curve& workload, Time lag = 0.0);

/// Legacy PwlCurve::step factory.
[[nodiscard]] Curve step(Time horizon, const std::vector<Time>& jump_times,
                         double step_height = 1.0);

[[nodiscard]] Curve constant(Time horizon, double value);

}  // namespace rta::legacyref

namespace rta::ladderref {

// The grid kernels of curve/algebra.cpp as they were before
// flat_eval_sweep: every operand is evaluated at every grid point through
// flat_eval_both's tolerant branch ladder, one SegmentCursor per operand.
// The production kernels, which compute the interpolation directly inside
// segments, must match these bit for bit (curves_identical). The same
// "do not improve" rule as for legacyref applies; only the kernel-hook
// reports are dropped, and the knee searches use std::upper_bound /
// std::lower_bound in place of the kernels' galloping cursor (same
// results).

[[nodiscard]] PwlCurve curve_sum(const std::vector<PwlCurve>& curves,
                                 Time horizon);
[[nodiscard]] PwlCurve curve_available(const PwlCurve& base,
                                       const std::vector<PwlCurve>& consumed,
                                       double offset = 0.0);
[[nodiscard]] PwlCurve curve_min_of_sums(const std::vector<SumTerm>& terms);
[[nodiscard]] PwlCurve curve_compose(const HingeEnvelope& g,
                                     const PwlCurve& a);
[[nodiscard]] PwlCurve curve_compose_capped_max(const HingeEnvelope& g,
                                                const PwlCurve& a,
                                                const PwlCurve& cap);

}  // namespace rta::ladderref
