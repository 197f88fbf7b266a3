// Classical utilization-based schedulability tests (Liu & Layland [23]).
//
// A sanity baseline for the tests, in the test-only rta_test_support library:
// the paper's opening reference point ("if the total utilization of the
// single processor is less than 69%, rate monotonic scheduling will guarantee
// that all jobs meet their deadlines").
#pragma once

#include <cstddef>

#include "model/system.hpp"

namespace rta {

/// Liu & Layland bound n(2^{1/n} - 1) for n tasks.
[[nodiscard]] double liu_layland_bound(std::size_t n);

/// Per-processor utilization of `system`, with periods estimated from
/// minimum inter-arrival times. Infinite-period (single-shot) jobs
/// contribute zero.
[[nodiscard]] std::vector<double> processor_utilizations(const System& system);

/// True if every processor passes the Liu & Layland test for its subjob
/// count. Sufficient (never admits an unschedulable RM system), far from
/// necessary -- the response-time analyzers dominate it.
[[nodiscard]] bool liu_layland_schedulable(const System& system);

}  // namespace rta
