#include "io/curve_csv.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <vector>

namespace rta {

void write_curve_samples_csv(const PwlCurve& curve, std::ostream& os,
                             std::size_t samples) {
  os << "t,value\n";
  os.precision(12);
  std::vector<Time> grid;
  grid.reserve(samples + curve.knot_count());
  const Time h = curve.horizon();
  for (std::size_t i = 0; i <= samples; ++i) {
    grid.push_back(h * static_cast<double>(i) / static_cast<double>(samples));
  }
  const CurveView v = curve.view();
  for (std::size_t i = 0; i < v.n; ++i) grid.push_back(v.t[i]);
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end(),
                         [](Time a, Time b) { return time_eq(a, b); }),
             grid.end());
  for (Time t : grid) {
    const double left = curve.eval_left(t);
    const double right = curve.eval(t);
    if (std::abs(left - right) > kValueEps) {
      os << t << "," << left << "\n";  // jump: emit both sides
    }
    os << t << "," << right << "\n";
  }
}

bool save_curve_csv(const PwlCurve& curve, const std::string& path,
                    std::size_t samples) {
  std::ofstream os(path);
  if (!os) return false;
  write_curve_samples_csv(curve, os, samples);
  return os.good();
}

}  // namespace rta
