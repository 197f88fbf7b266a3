// Concurrency smoke test for the parallel analysis engine, written to be
// meaningful under ThreadSanitizer (configure with -DRTA_SANITIZE=thread):
// several client threads drive analyses concurrently -- each through its own
// analyzer and, in the second test, all through ONE shared analyzer whose
// internal ThreadPool is then exercised from every client at once. Any data
// race in the wavefront scheduler or the pass-skip memo shows up here.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "analysis/iterative.hpp"
#include "model/priority.hpp"
#include "util/rng.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

constexpr int kClientThreads = 4;

System make_system(std::uint64_t seed) {
  JobShopConfig cfg;
  cfg.stages = 3;
  cfg.processors_per_stage = 2;
  cfg.jobs = 5;
  cfg.pattern = ArrivalPattern::kPeriodic;
  cfg.utilization = 0.7;
  cfg.window_periods = 4.0;
  cfg.scheduler = SchedulerKind::kSpp;
  Rng rng(seed);
  System system = generate_jobshop(cfg, rng);
  assign_proportional_deadline_monotonic(system);
  return system;
}

void expect_same_report(const AnalysisResult& a, const AnalysisResult& b) {
  ASSERT_EQ(a.ok, b.ok);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t k = 0; k < a.jobs.size(); ++k) {
    EXPECT_EQ(a.jobs[k].wcrt, b.jobs[k].wcrt) << "job " << k;
    EXPECT_EQ(a.jobs[k].schedulable, b.jobs[k].schedulable) << "job " << k;
  }
}

// Each client owns its analyzer; they only share the immutable System.
TEST(ThreadSafety, ConcurrentAnalyzersOnSharedSystem) {
  const System system = make_system(42);
  AnalysisConfig cfg;
  cfg.threads = 4;

  const AnalysisResult reference = IterativeBoundsAnalyzer(cfg).analyze(system);
  ASSERT_TRUE(reference.ok);

  std::vector<AnalysisResult> results(kClientThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      IterativeBoundsAnalyzer analyzer(cfg);
      results[static_cast<std::size_t>(t)] = analyzer.analyze(system);
    });
  }
  for (auto& c : clients) c.join();
  for (const AnalysisResult& r : results) expect_same_report(reference, r);
}

// All clients hammer ONE analyzer concurrently. analyze() is const and the
// engine keeps per-call state on the stack; the shared piece (ThreadPool)
// is the synchronized one. Clients use distinct systems so a
// cross-talk bug would corrupt results, not just race silently.
TEST(ThreadSafety, SharedAnalyzerServesConcurrentClients) {
  std::vector<System> systems;
  std::vector<AnalysisResult> references;
  AnalysisConfig serial;
  serial.threads = 1;
  for (int t = 0; t < kClientThreads; ++t) {
    systems.push_back(make_system(1000 + static_cast<std::uint64_t>(t)));
    references.push_back(BoundsAnalyzer(serial).analyze(systems.back()));
    ASSERT_TRUE(references.back().ok);
  }

  AnalysisConfig cfg;
  cfg.threads = 4;
  const BoundsAnalyzer shared(cfg);

  std::vector<AnalysisResult> results(kClientThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::size_t idx = static_cast<std::size_t>(t);
      for (int round = 0; round < 3; ++round) {
        results[idx] = shared.analyze(systems[idx]);
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClientThreads; ++t) {
    expect_same_report(references[static_cast<std::size_t>(t)],
                       results[static_cast<std::size_t>(t)]);
  }
}

// Same for the iterative engine, whose pass-skip memo is per-call state and
// must not leak between concurrent analyses.
TEST(ThreadSafety, SharedIterativeAnalyzerServesConcurrentClients) {
  std::vector<System> systems;
  std::vector<AnalysisResult> references;
  AnalysisConfig serial;
  serial.threads = 1;
  for (int t = 0; t < kClientThreads; ++t) {
    systems.push_back(make_system(2000 + static_cast<std::uint64_t>(t)));
    references.push_back(IterativeBoundsAnalyzer(serial).analyze(systems.back()));
    ASSERT_TRUE(references.back().ok);
  }

  AnalysisConfig cfg;
  cfg.threads = 4;
  const IterativeBoundsAnalyzer shared(cfg);

  std::vector<AnalysisResult> results(kClientThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::size_t idx = static_cast<std::size_t>(t);
      results[idx] = shared.analyze(systems[idx]);
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClientThreads; ++t) {
    expect_same_report(references[static_cast<std::size_t>(t)],
                       results[static_cast<std::size_t>(t)]);
  }
}

}  // namespace
}  // namespace rta
