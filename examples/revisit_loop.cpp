// Cyclic topologies (the paper's §6 open problem, implemented here): a job
// that REVISITS a processor creates a "physical loop" -- its second visit's
// arrival function depends on service decisions that depend on its own first
// visit. The acyclic analyzers refuse; IterativeBoundsAnalyzer solves the
// fixed point X^{n+1} = F(X^n) at the level of arrival-curve bounds.
//
// Scenario: a request/response job on a gateway:
//   request:  gateway P0 -> backend P1 -> gateway P0 (reply processing)
//   telemetry: independent traffic on both processors.
//
// Build & run:  ./build/examples/revisit_loop
#include <cstdio>

#include "analysis/bounds.hpp"
#include "analysis/iterative.hpp"
#include "analysis/order.hpp"
#include "analysis/result.hpp"
#include "curve/arrival.hpp"
#include "eval/validation.hpp"
#include "model/system.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace rta;

  System system(2, SchedulerKind::kSpnp);
  const Time window = 120.0;

  Job request;
  request.name = "request";
  request.deadline = 14.0;
  request.chain = {{0, 1.0, 0}, {1, 2.5, 0}, {0, 1.5, 0}};  // P0 twice!
  request.arrivals = ArrivalSequence::periodic(10.0, window);
  system.add_job(std::move(request));

  Job telemetry;
  telemetry.name = "telemetry";
  telemetry.deadline = 24.0;
  telemetry.chain = {{1, 1.0, 0}, {0, 0.8, 0}};
  telemetry.arrivals = ArrivalSequence::bursty_eq27(0.12, window);
  system.add_job(std::move(telemetry));

  // Replies beat fresh requests on the gateway (a common design): the
  // second visit outranks the first, which is exactly what closes the
  // dependency loop -- the first visit's service depends on the second
  // visit's arrivals, which depend on the first visit's departures.
  system.subjob({0, 2}).priority = 1;  // reply processing on P0
  system.subjob({0, 0}).priority = 2;  // request intake on P0
  system.subjob({1, 1}).priority = 3;  // telemetry on P0
  system.subjob({0, 1}).priority = 1;  // backend work on P1
  system.subjob({1, 0}).priority = 2;  // telemetry on P1

  std::printf("dependency graph acyclic? %s\n",
              dependency_order(system) ? "yes" : "no");

  const AnalysisResult direct = BoundsAnalyzer().analyze(system);
  std::printf("BoundsAnalyzer: %s\n",
              direct.ok ? "ok (unexpected!)" : direct.error.c_str());

  AnalysisConfig cfg;
  cfg.max_iterations = 32;
  IterativeBoundsAnalyzer analyzer(cfg);
  const AnalysisResult result = analyzer.analyze(system);
  if (!result.ok) {
    std::fprintf(stderr, "iterative analysis failed: %s\n",
                 result.error.c_str());
    return 1;
  }
  std::printf("IterativeBoundsAnalyzer converged in %d iteration(s)\n\n",
              analyzer.last_iterations());

  const SimResult sim = simulate(system, result.horizon);
  std::printf("job         deadline   bound   simulated   verdict\n");
  for (int k = 0; k < system.job_count(); ++k) {
    std::printf("%-10s %9.2f %7.2f %11.2f   %s\n",
                system.job(k).name.c_str(), system.job(k).deadline,
                result.jobs[k].wcrt, sim.worst_response[k],
                result.jobs[k].schedulable ? "guaranteed" : "not proven");
  }

  const bool sound = compare_with_simulation(system, result, sim).bounds_hold();
  std::printf("\nbounds dominate the simulation: %s\n", sound ? "yes" : "NO");
  return sound ? 0 : 1;
}
