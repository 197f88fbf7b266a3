#include "support/experiment.hpp"

#include <atomic>
#include <memory>

#include "analysis/analyzer.hpp"
#include "model/priority.hpp"
#include "util/thread_pool.hpp"

namespace rta {

std::vector<AdmissionPoint> run_admission_experiment(
    const AdmissionConfig& config) {
  const std::size_t u_count = config.utilizations.size();
  const std::size_t m_count = config.methods.size();

  std::vector<AdmissionPoint> points(u_count * m_count);
  for (std::size_t ui = 0; ui < u_count; ++ui) {
    for (std::size_t mi = 0; mi < m_count; ++mi) {
      AdmissionPoint& p = points[ui * m_count + mi];
      p.utilization = config.utilizations[ui];
      p.method = config.methods[mi];
      p.trials = config.trials;
    }
  }

  std::vector<std::atomic<std::size_t>> admitted(u_count * m_count);
  for (auto& a : admitted) a.store(0, std::memory_order_relaxed);

  const RngFactory factory(config.seed);
  const std::size_t workers = resolve_workers(config.threads);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);

  for_each_index(pool.get(), config.trials, [&](std::size_t trial) {
    for (std::size_t ui = 0; ui < u_count; ++ui) {
      // Same trial index -> same random draws; utilization only scales
      // execution times, so the job set is comparable across the sweep.
      Rng rng = factory.stream(trial);
      JobShopConfig shop = config.shop;
      shop.utilization = config.utilizations[ui];
      const System base = generate_jobshop(shop, rng);

      for (std::size_t mi = 0; mi < m_count; ++mi) {
        const Method method = config.methods[mi];
        System system = base;
        for (int p = 0; p < system.processor_count(); ++p) {
          system.set_scheduler(p, method_scheduler(method));
        }
        assign_proportional_deadline_monotonic(system);
        const AnalysisResult result =
            analyze_with(method, system, AnalysisConfig{});
        if (result.ok && result.all_schedulable()) {
          admitted[ui * m_count + mi].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].admitted = admitted[i].load(std::memory_order_relaxed);
  }
  return points;
}

}  // namespace rta
