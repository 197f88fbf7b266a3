// Shared instrumentation plumbing for the bounds engines.
//
// EngineObs bundles everything one analyzer instance needs to report into a
// configured obs::Observer: the pre-resolved metric handles, the kernel sink
// installed around each unit of work, and the per-analyze() flush of
// ThreadPool counters (recorded as deltas, so repeated analyze() calls on
// one instance report per-call numbers).
//
// Everything here is inert when the config carries no observer: the
// analyzers hold a null EngineObs pointer and skip every call site with one
// branch, preserving the zero-cost contract.
#pragma once

#include <memory>
#include <string>

#include "analysis/result.hpp"
#include "obs/kernel_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rta::detail {

/// Per-analyzer observability state. Create once at analyzer construction
/// (when the config has an observer), then open one AnalyzeScope per
/// analyze() call.
class EngineObs {
 public:
  /// `engine` tags the analyzer ("bounds" / "iterative") in span names.
  EngineObs(const obs::Observer& observer, std::string engine);

  /// Null when `observer` is empty: call sites guard on the pointer.
  static std::unique_ptr<EngineObs> make_if(const obs::Observer& observer,
                                            const char* engine);

  [[nodiscard]] obs::Tracer* tracer() const { return observer_.tracer; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const {
    return observer_.metrics;
  }
  [[nodiscard]] obs::KernelSink* kernel_sink() const { return ksink_.get(); }
  [[nodiscard]] const std::string& engine() const { return engine_; }

  /// Record one unit's wall time against its processor's scheduler kind
  /// (the per-scheduler breakdown surfaced by `rta_cli validate --stats`).
  void add_unit_time(SchedulerKind kind, double micros) const;

  /// Flushes pool counter deltas on destruction, bracketing one analyze()
  /// call.
  class AnalyzeScope {
   public:
    AnalyzeScope(const EngineObs* eobs, const ThreadPool* pool);
    ~AnalyzeScope();

    AnalyzeScope(const AnalyzeScope&) = delete;
    AnalyzeScope& operator=(const AnalyzeScope&) = delete;

   private:
    const EngineObs* eobs_;
    const ThreadPool* pool_;
    ThreadPool::Stats pool_start_;
  };

 private:
  obs::Observer observer_;
  std::string engine_;
  std::unique_ptr<obs::KernelSink> ksink_;

  obs::Counter unit_time_spp_us_, unit_time_spnp_us_, unit_time_fcfs_us_;
  obs::Counter pool_tasks_, pool_loops_;
  obs::Counter pool_indices_, pool_indices_abandoned_;
  obs::Counter pool_busy_us_;
  obs::Gauge pool_queue_high_water_;
};

}  // namespace rta::detail
