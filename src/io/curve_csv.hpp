// CSV export of piecewise-linear curves, for plotting and inspection.
#pragma once

#include <iosfwd>
#include <string>

#include "curve/pwl_curve.hpp"

namespace rta {

/// Write a dense sampling suited to line plots: header "t,value", rows at
/// `samples` evenly spaced instants plus every knot (so jumps are preserved
/// as consecutive rows with equal t and differing value).
void write_curve_samples_csv(const PwlCurve& curve, std::ostream& os,
                             std::size_t samples = 200);

/// Convenience: save sampled CSV to a file; false on I/O failure.
bool save_curve_csv(const PwlCurve& curve, const std::string& path,
                    std::size_t samples = 200);

}  // namespace rta
