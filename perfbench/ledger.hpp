// Trace folder: turns the traced run's spans into a per-layer self-time
// ledger.
//
// A span's self time is its duration minus the time its child spans cover.
// Spans map onto the service's layers by name:
//
//   sched              service.request / service.read / service.mutate /
//                      service.shard.pump (request_scheduler,
//                      sharded_scheduler)
//   session            service.dirty_closure / service.snapshot_clone
//                      (admission_session)
//   analysis.unit      bounds.unit* (analysis/bounds): one
//                      compute_single_priority_subjob or FCFS processor pass
//   analysis.fast_unit service.fast_what_if: the session's fast read path,
//                      which runs the same per-hop units inline, without a
//                      bounds.unit span of their own
//   analysis.wave      bounds.wave (wavefront bookkeeping around its units)
//
// Everything the spans do not cover -- the codec's parse and dump, the
// scheduler outside its spans, the callers -- is the `other` remainder of
// the run's wall time.
//
// Work over span: the bounds wavefront runs its units wave by wave, so its
// critical path is the sum over waves of the longest unit in each wave;
// total unit time divided by that is the parallelism a wavefront could use.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Ledger {
  std::map<std::string, double> self_us;  ///< per layer, spans only
  double unit_us = 0.0;       ///< analysis.unit + analysis.fast_unit
  double wave_unit_us = 0.0;  ///< unit time inside bounds.wave spans
  double critical_us = 0.0;   ///< sum over waves of the longest unit
  std::size_t units = 0;      ///< bounds.unit spans + fast-path hops
  std::size_t fast_paths = 0; ///< service.fast_what_if spans
  std::vector<double> queue_us;  ///< queue_us of every service.request
  /// Unit time (both kinds) per request trace_id.
  std::unordered_map<std::string, double> unit_us_by_trace;

  [[nodiscard]] double spans_us() const;
};

/// Fold the events recorded at or after `from_us` (tracer clock).
[[nodiscard]] Ledger fold_trace(const std::vector<rta::obs::TraceEvent>& events,
                                double from_us);

}  // namespace perfbench
