// Metrics-backed implementation of the curve kernels' instrumentation hooks.
//
// The hook mechanism itself (thread-local pointer, RAII install scope) lives
// in curve/kernel_hooks.hpp so the kernels never depend upward on obs. This
// file supplies the one production implementation: pre-resolved counter and
// histogram handles that the analyzers install around each unit of work via
// curve::KernelHooksScope.
//
// The counters land in per-thread registry shards (obs/metrics.hpp), so
// enabling them adds no contention.
#pragma once

#include "curve/kernel_hooks.hpp"
#include "obs/metrics.hpp"

namespace rta::obs {

/// Pre-resolved handles for everything the kernels record.
struct KernelSink : curve::KernelHooks {
  explicit KernelSink(MetricsRegistry& registry);

  void on_pointwise(std::size_t result_knots) override {
    pointwise_ops.inc();
    pointwise_result_knots.observe(static_cast<double>(result_knots));
  }
  void on_pinv() override { pinv_ops.inc(); }

  Counter pointwise_ops;   ///< curve_min/max/add/sub evaluations
  Counter pinv_ops;        ///< PwlCurve::pseudo_inverse evaluations
  Histogram pointwise_result_knots;  ///< knots of a pointwise-merge result
};

}  // namespace rta::obs
