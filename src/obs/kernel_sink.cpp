#include "obs/kernel_sink.hpp"

namespace rta::obs {

KernelSink::KernelSink(MetricsRegistry& registry)
    : pointwise_ops(registry.counter("kernel.pointwise_ops")),
      pinv_ops(registry.counter("kernel.pinv_ops")),
      pointwise_result_knots(
          registry.histogram("kernel.pointwise_result_knots",
                             MetricsRegistry::knot_buckets())) {}

}  // namespace rta::obs
