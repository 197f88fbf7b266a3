// Tolerant floating-point time arithmetic.
//
// Release times in this system are real-valued (the paper's bursty arrival
// generator, Eq. 27, produces irrational instants), so time is represented as
// double. Every comparison that feeds a discrete decision -- "did instance m
// depart no later than t", "how many whole executions fit into S(t)" -- goes
// through the tolerant helpers here so that 2.9999999996 counts as 3.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace rta {

/// Time instants and durations, in abstract time units.
using Time = double;

/// Sentinel for "never" / unbounded response time.
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Absolute tolerance used by all time comparisons.
inline constexpr double kTimeEpsAbs = 1e-9;
/// Relative tolerance used by all time comparisons.
inline constexpr double kTimeEpsRel = 1e-12;

/// Combined tolerance for values of magnitude |a| and |b|.
[[nodiscard]] inline double time_tolerance(Time a, Time b) {
  const double mag = std::fmax(std::fabs(a), std::fabs(b));
  return kTimeEpsAbs + kTimeEpsRel * mag;
}

/// a == b within tolerance.
[[nodiscard]] inline bool time_eq(Time a, Time b) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::fabs(a - b) <= time_tolerance(a, b);
}

/// time_eq(a, b) for operands already in order, bit for bit. Domain: a >= 0,
/// b finite, and a <= b (or a above b but time_eq to it, where both forms
/// hold). There |a - b| is exactly b - a and max(|a|, |b|) is b, so the
/// isinf/fabs/fmax steps of time_eq drop out. For sorted grids and knot
/// arrays; the domain is asserted in debug builds.
[[nodiscard]] inline bool time_eq_ordered(Time a, Time b) {
  assert(a >= 0.0 && std::isfinite(b) && (a <= b || time_eq(a, b)));
  return b - a <= kTimeEpsAbs + kTimeEpsRel * b;
}

/// a < b and not within tolerance.
[[nodiscard]] inline bool time_lt(Time a, Time b) {
  return a < b && !time_eq(a, b);
}

/// a <= b within tolerance.
[[nodiscard]] inline bool time_le(Time a, Time b) {
  return a < b || time_eq(a, b);
}

/// a > b and not within tolerance.
[[nodiscard]] inline bool time_gt(Time a, Time b) { return time_lt(b, a); }

/// a >= b within tolerance.
[[nodiscard]] inline bool time_ge(Time a, Time b) { return time_le(b, a); }

/// floor(x) robust against x being epsilon below an integer.
[[nodiscard]] inline long long tolerant_floor(double x) {
  const double nudged = x + kTimeEpsAbs + kTimeEpsRel * std::fabs(x);
  return static_cast<long long>(std::floor(nudged));
}

/// ceil(x) robust against x being epsilon above an integer.
[[nodiscard]] inline long long tolerant_ceil(double x) {
  const double nudged = x - (kTimeEpsAbs + kTimeEpsRel * std::fabs(x));
  return static_cast<long long>(std::ceil(nudged));
}

/// Clamp tiny negative values (arithmetic noise) to exact zero.
[[nodiscard]] inline Time clamp_nonnegative(Time t) {
  return (t < 0.0 && t > -kTimeEpsAbs) ? 0.0 : t;
}

// Wall-clock unit conversions. Identifiers carrying a unit suffix (_ns, _us,
// _ms, _s) must cross unit boundaries through these helpers rather than bare
// power-of-1000 factors; rta-archcheck's unit pass enforces this.

/// Milliseconds to microseconds.
[[nodiscard]] inline double ms_to_us(double ms) { return ms * 1000.0; }

/// Microseconds to milliseconds.
[[nodiscard]] inline double us_to_ms(double us) { return us / 1000.0; }

/// Seconds to microseconds.
[[nodiscard]] inline double s_to_us(double s) { return s * 1e6; }

/// Microseconds to seconds.
[[nodiscard]] inline double us_to_s(double us) { return us / 1e6; }

/// Nanoseconds to whole microseconds (truncating).
[[nodiscard]] inline std::uint64_t ns_to_us(std::uint64_t ns) {
  return ns / 1000;
}

}  // namespace rta
