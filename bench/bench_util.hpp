// Shared helpers for the figure-reproduction benches: admission-table
// formatting and CSV emission.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "support/csv.hpp"
#include "support/experiment.hpp"  // AdmissionPoint
#include "support/stats.hpp"

namespace rta::bench {

/// Print one panel as a column-per-method table, paper-style, and append
/// rows to a CSV writer (panel, utilization, method, probability, ci).
inline void print_panel(const std::string& panel_id,
                        const std::string& panel_desc,
                        const std::vector<double>& utilizations,
                        const std::vector<Method>& methods,
                        const std::vector<AdmissionPoint>& points,
                        CsvWriter* csv) {
  std::printf("\n--- %s: %s ---\n", panel_id.c_str(), panel_desc.c_str());
  std::printf("%12s", "util");
  for (Method m : methods) std::printf("  %10s", method_name(m));
  std::printf("\n");
  for (std::size_t ui = 0; ui < utilizations.size(); ++ui) {
    std::printf("%12.2f", utilizations[ui]);
    for (std::size_t mi = 0; mi < methods.size(); ++mi) {
      const AdmissionPoint& p = points[ui * methods.size() + mi];
      std::printf("  %10.3f", p.probability());
      if (csv) {
        csv->add(panel_id, utilizations[ui],
                 std::string(method_name(p.method)), p.probability(),
                 wilson_half_width(p.admitted, p.trials), p.trials);
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

inline std::vector<double> utilization_grid(double lo, double hi,
                                            double step) {
  std::vector<double> grid;
  for (double u = lo; u <= hi + 1e-9; u += step) grid.push_back(u);
  return grid;
}

}  // namespace rta::bench
