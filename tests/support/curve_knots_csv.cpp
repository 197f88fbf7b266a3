#include "support/curve_knots_csv.hpp"

#include <ostream>

namespace rta {

void write_curve_knots_csv(const PwlCurve& curve, std::ostream& os) {
  os << "t,left,right\n";
  os.precision(17);
  const CurveView v = curve.view();
  for (std::size_t i = 0; i < v.n; ++i) {
    os << v.t[i] << "," << v.l[i] << "," << v.r[i] << "\n";
  }
}

}  // namespace rta
