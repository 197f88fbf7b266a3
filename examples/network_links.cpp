// Modeling communication links as processors.
//
// The paper ignores inter-processor communication overhead (§3.2), but its
// model subsumes it: a network link is just another "processor", usually
// FCFS (a transmit queue) or SPNP (a CAN-style bus: priority arbitration,
// but a frame in flight is never preempted). A message hop becomes a subjob
// whose execution time is the frame transmission time.
//
// This example builds a two-ECU control system connected by a CAN-like bus:
//
//   sensor ECU (P0, SPP) --> bus (P2, SPNP) --> actuator ECU (P1, SPP)
//
// and shows (a) end-to-end bounds including the bus hop, (b) the blocking
// effect of a large low-priority frame on the bus, quantified by comparing
// against the same system with the big frame removed.
//
// Build & run:  ./build/examples/network_links
#include <cstdio>

#include "analysis/bounds.hpp"
#include "analysis/result.hpp"
#include "curve/arrival.hpp"
#include "model/priority.hpp"
#include "model/system.hpp"
#include "sim/simulator.hpp"

namespace {

rta::System build(bool with_bulk_frame) {
  using namespace rta;
  const Time window = 200.0;
  System sys(3, SchedulerKind::kSpp);
  sys.set_scheduler(2, SchedulerKind::kSpnp);  // the bus

  Job control;
  control.name = "control";
  control.deadline = 10.0;
  control.chain = {{0, 1.0, 0},    // sample + preprocess on sensor ECU
                   {2, 0.5, 0},    // frame on the bus
                   {1, 1.5, 0}};   // control law on actuator ECU
  control.arrivals = ArrivalSequence::periodic(8.0, window);
  sys.add_job(std::move(control));

  Job monitor;
  monitor.name = "monitor";
  monitor.deadline = 30.0;
  monitor.chain = {{0, 0.8, 0}, {2, 0.4, 0}, {1, 0.6, 0}};
  monitor.arrivals = ArrivalSequence::periodic(15.0, window);
  sys.add_job(std::move(monitor));

  if (with_bulk_frame) {
    Job bulk;  // diagnostic dump: one LARGE low-priority frame
    bulk.name = "bulk";
    bulk.deadline = 100.0;
    bulk.chain = {{2, 4.0, 0}};
    bulk.arrivals = ArrivalSequence::periodic(40.0, window);
    sys.add_job(std::move(bulk));
  }
  assign_proportional_deadline_monotonic(sys);
  return sys;
}

void report(const char* label, const rta::System& sys) {
  using namespace rta;
  const AnalysisResult r = BoundsAnalyzer().analyze(sys);
  if (!r.ok) {
    std::fprintf(stderr, "%s: analysis failed: %s\n", label, r.error.c_str());
    return;
  }
  const SimResult s = simulate(sys, r.horizon);
  std::printf("%s\n", label);
  for (int k = 0; k < sys.job_count(); ++k) {
    std::printf("  %-8s bound %6.2f  sim %6.2f  deadline %6.2f  %s\n",
                sys.job(k).name.c_str(), r.jobs[k].wcrt,
                s.worst_response[k], sys.job(k).deadline,
                r.jobs[k].schedulable ? "ok" : "NOT PROVEN");
  }
  // Blocking on the bus (Eq. 15): what a control frame may wait for.
  for (const SubjobRef& ref : sys.subjobs_on(2)) {
    if (ref.job == 0) {
      std::printf("  control frame bus blocking b = %.2f\n",
                  sys.blocking_time(ref));
    }
  }
}

}  // namespace

int main() {
  std::printf("CAN-style bus modeled as an SPNP processor\n\n");
  report("with bulk diagnostic frames on the bus:", build(true));
  std::printf("\n");
  report("without them:", build(false));
  std::printf("\nThe difference in the control loop's bound is the bus\n"
              "blocking term: one maximal lower-priority frame per busy\n"
              "period (non-preemptive arbitration).\n");
  return 0;
}
