// Post-hoc invariant checking of simulation runs.
//
// The simulator is the ground truth for every analyzer, so it gets its own
// watchdog: given a SimResult, these checks verify from the recorded
// execution segments that the run was a legal schedule of the system --
// independently of the event-loop implementation.
//
//   * work conservation: a processor never idles while an instance is ready
//     on it (all scheduler kinds);
//   * preemptive priority compliance: under SPP, whenever an instance of a
//     higher-priority subjob is ready, no lower-priority subjob executes;
//   * non-preemption: under SPNP/FCFS, every instance executes in one
//     contiguous segment;
//   * FCFS order: completion order on a FCFS processor follows release
//     order (ties broken deterministically by the simulator);
//   * accounting: every completed instance received exactly its execution
//     time, within one segment set, between release and completion.
//
// Used by tests (randomized shops) to guard the simulator itself; it lives
// in the test-only rta_test_support library.
#pragma once

#include <string>
#include <vector>

#include "model/system.hpp"
#include "sim/simulator.hpp"

namespace rta {

/// Run all applicable checks; returns human-readable violations (empty if
/// the run is a legal schedule).
[[nodiscard]] std::vector<std::string> check_simulation_invariants(
    const System& system, const SimResult& result);

}  // namespace rta
