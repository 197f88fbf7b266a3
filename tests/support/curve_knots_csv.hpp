// Exact knot dump of a piecewise-linear curve, for the CSV export tests. The
// shipped io library keeps only the sampled export (io/curve_csv.hpp).
#pragma once

#include <iosfwd>

#include "curve/pwl_curve.hpp"

namespace rta {

/// Write the exact knot structure: header "t,left,right", one row per knot.
void write_curve_knots_csv(const PwlCurve& curve, std::ostream& os);

}  // namespace rta
