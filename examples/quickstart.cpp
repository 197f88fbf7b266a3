// Quickstart: build a small distributed real-time system by hand, run the
// exact SPP analysis (paper §4.1), and check every job against its deadline.
//
//   Processors: P0 (sensor hub), P1 (fusion node), both SPP-scheduled.
//   Job "control": sensor read on P0 (0.4) -> control law on P1 (1.0),
//                  released every 4 time units, end-to-end deadline 3.
//   Job "logging": log pack on P0 (0.8) -> flush on P1 (0.6),
//                  released every 10 time units, deadline 10.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "analysis/result.hpp"
#include "analysis/spp_exact.hpp"
#include "curve/arrival.hpp"
#include "model/priority.hpp"
#include "model/system.hpp"

int main() {
  using namespace rta;

  System system(/*processor_count=*/2, SchedulerKind::kSpp);

  Job control;
  control.name = "control";
  control.deadline = 3.0;
  control.chain = {{/*processor=*/0, /*exec_time=*/0.4, /*priority=*/0},
                   {/*processor=*/1, /*exec_time=*/1.0, /*priority=*/0}};
  control.arrivals = ArrivalSequence::periodic(/*period=*/4.0, /*window=*/40.0);
  system.add_job(std::move(control));

  Job logging;
  logging.name = "logging";
  logging.deadline = 10.0;
  logging.chain = {{0, 0.8, 0}, {1, 0.6, 0}};
  logging.arrivals = ArrivalSequence::periodic(10.0, 40.0);
  system.add_job(std::move(logging));

  // Per-processor priorities from proportional sub-deadlines (Eq. 24).
  assign_proportional_deadline_monotonic(system);

  const AnalysisResult result = ExactSppAnalyzer().analyze(system);
  if (!result.ok) {
    std::fprintf(stderr, "analysis failed: %s\n", result.error.c_str());
    return 1;
  }

  std::printf("%-10s %10s %10s %6s\n", "job", "wcrt", "deadline", "ok?");
  for (int k = 0; k < system.job_count(); ++k) {
    const JobReport& report = result.jobs[k];
    std::printf("%-10s %10.3f %10.3f %6s\n", system.job(k).name.c_str(),
                report.wcrt, system.job(k).deadline,
                report.schedulable ? "yes" : "NO");
  }
  std::printf("\nsystem schedulable: %s\n",
              result.all_schedulable() ? "yes" : "no");

  // The exact analysis also exposes each instance's response time.
  std::printf("\ncontrol instance responses:");
  for (Time r : result.jobs[0].per_instance) std::printf(" %.3f", r);
  std::printf("\n");
  return result.all_schedulable() ? 0 : 1;
}
