// Output checks of one benchmark run.
//
// The service's responses were hashed on the wire (latency_us stripped)
// and their envelopes checked as they arrived. Here the same request lines
// are regenerated and replayed through the sequential reference runner
// (run_request_stream) on a fresh session per tenant; every response must
// hash equal. Then a fixed sample of decisions is re-derived from scratch:
// the candidate system is rebuilt from the committed jobs the responses
// report, analyzed by a fresh BoundsAnalyzer, and its verdict and max_wcrt
// must equal the response's. Both checks compare against the analysis as it
// is, so they keep holding when the bounds get tighter.
#pragma once

#include <string>
#include <vector>

#include "closed_loop.hpp"

namespace perfbench {

struct CheckReport {
  std::vector<std::string> failures;  ///< empty: every check passed
  std::size_t compared = 0;           ///< responses hash-compared
  std::size_t sampled = 0;            ///< decisions re-analyzed from scratch
  double seconds = 0.0;               ///< wall time the checks took
};

[[nodiscard]] CheckReport check_outputs(const Workload& wl,
                                        const LoopResult& run);

}  // namespace perfbench
