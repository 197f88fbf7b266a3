#include "analysis/instrument.hpp"

#include <utility>

#include "util/time.hpp"

namespace rta::detail {

EngineObs::EngineObs(const obs::Observer& observer, std::string engine)
    : observer_(observer), engine_(std::move(engine)) {
  if (observer_.metrics == nullptr) return;
  obs::MetricsRegistry& reg = *observer_.metrics;
  ksink_ = std::make_unique<obs::KernelSink>(reg);
  unit_time_spp_us_ = reg.counter("analysis.unit_time_spp_us");
  unit_time_spnp_us_ = reg.counter("analysis.unit_time_spnp_us");
  unit_time_fcfs_us_ = reg.counter("analysis.unit_time_fcfs_us");
  pool_tasks_ = reg.counter("pool.tasks_executed");
  pool_loops_ = reg.counter("pool.loops");
  pool_indices_ = reg.counter("pool.indices_executed");
  pool_indices_abandoned_ = reg.counter("pool.indices_abandoned");
  pool_busy_us_ = reg.counter("pool.worker_busy_us");
  pool_queue_high_water_ = reg.gauge("pool.queue_high_water");
}

std::unique_ptr<EngineObs> EngineObs::make_if(const obs::Observer& observer,
                                              const char* engine) {
  if (!observer.enabled()) return nullptr;
  return std::make_unique<EngineObs>(observer, engine);
}

void EngineObs::add_unit_time(SchedulerKind kind, double micros) const {
  if (observer_.metrics == nullptr) return;
  const auto us = static_cast<std::uint64_t>(micros);
  switch (kind) {
    case SchedulerKind::kSpp: unit_time_spp_us_.add(us); break;
    case SchedulerKind::kSpnp: unit_time_spnp_us_.add(us); break;
    case SchedulerKind::kFcfs: unit_time_fcfs_us_.add(us); break;
  }
}

EngineObs::AnalyzeScope::AnalyzeScope(const EngineObs* eobs,
                                      const ThreadPool* pool)
    : eobs_(eobs), pool_(pool) {
  if (eobs_ == nullptr || eobs_->metrics() == nullptr) return;
  if (pool_ != nullptr) pool_start_ = pool_->stats();
}

EngineObs::AnalyzeScope::~AnalyzeScope() {
  if (eobs_ == nullptr || eobs_->metrics() == nullptr) return;
  if (pool_ != nullptr) {
    const ThreadPool::Stats now = pool_->stats();
    eobs_->pool_tasks_.add(now.tasks_executed - pool_start_.tasks_executed);
    eobs_->pool_loops_.add(now.loops - pool_start_.loops);
    eobs_->pool_indices_.add(now.indices_executed -
                             pool_start_.indices_executed);
    eobs_->pool_indices_abandoned_.add(now.indices_abandoned -
                                       pool_start_.indices_abandoned);
    std::uint64_t busy_ns = 0;
    for (std::size_t i = 0; i < now.worker_busy_ns.size(); ++i) {
      const std::uint64_t before = i < pool_start_.worker_busy_ns.size()
                                       ? pool_start_.worker_busy_ns[i]
                                       : 0;
      busy_ns += now.worker_busy_ns[i] - before;
    }
    eobs_->pool_busy_us_.add(ns_to_us(busy_ns));
    eobs_->pool_queue_high_water_.record_max(
        static_cast<double>(now.queue_high_water));
  }
}

}  // namespace rta::detail
