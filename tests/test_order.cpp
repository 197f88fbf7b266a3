// Tests for the dependency graph and topological ordering used by the
// analyzers (analysis/order.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/order.hpp"
#include "model/priority.hpp"
#include "workload/jobshop.hpp"

namespace rta {
namespace {

Job make_job(const std::string& name, std::vector<Subjob> chain) {
  Job j;
  j.name = name;
  j.deadline = 10.0;
  j.chain = std::move(chain);
  j.arrivals = ArrivalSequence(std::vector<Time>{0.0});
  return j;
}

/// The paper's §6 logical loop: each job's first hop is outranked by the
/// other job's second hop on the same processor.
System logical_loop() {
  System sys(2, SchedulerKind::kSpp);
  sys.add_job(make_job("Tk", {{0, 1.0, 2}, {1, 1.0, 1}}));
  sys.add_job(make_job("Tn", {{1, 1.0, 2}, {0, 1.0, 1}}));
  return sys;
}

/// A physical loop: one job visits the same FCFS processor twice.
System fcfs_revisit() {
  System sys(2, SchedulerKind::kFcfs);
  sys.add_job(make_job("loop", {{0, 1.0, 0}, {1, 1.0, 0}, {0, 1.0, 0}}));
  return sys;
}

TEST(Order, ChainEdgesRespectHops) {
  System sys(2, SchedulerKind::kSpp);
  sys.add_job(make_job("A", {{0, 1.0, 1}, {1, 1.0, 1}}));
  const auto dep = dependency_order(sys);
  ASSERT_TRUE(dep.has_value());
  std::map<std::pair<int, int>, std::size_t> pos;
  for (std::size_t i = 0; i < dep->order.size(); ++i) {
    pos[{dep->order[i].job, dep->order[i].hop}] = i;
  }
  EXPECT_LT((pos[{0, 0}]), (pos[{0, 1}]));
}

TEST(Order, PriorityEdgesComeFirst) {
  System sys(1, SchedulerKind::kSpp);
  sys.add_job(make_job("Low", {{0, 1.0, 2}}));
  sys.add_job(make_job("High", {{0, 1.0, 1}}));
  const auto dep = dependency_order(sys);
  ASSERT_TRUE(dep.has_value());
  ASSERT_EQ(dep->order.size(), 2u);
  EXPECT_EQ(dep->order[0], (SubjobRef{1, 0}));  // High before Low
}

TEST(Order, FcfsCouplesViaPredecessors) {
  // Both jobs' second hops share a FCFS processor; their first hops must
  // both precede either second hop.
  System sys(3, SchedulerKind::kSpp);
  sys.set_scheduler(2, SchedulerKind::kFcfs);
  sys.add_job(make_job("A", {{0, 1.0, 1}, {2, 1.0, 0}}));
  sys.add_job(make_job("B", {{1, 1.0, 1}, {2, 1.0, 0}}));
  const auto dep = dependency_order(sys);
  ASSERT_TRUE(dep.has_value());
  std::map<std::pair<int, int>, std::size_t> pos;
  for (std::size_t i = 0; i < dep->order.size(); ++i) {
    pos[{dep->order[i].job, dep->order[i].hop}] = i;
  }
  EXPECT_LT((pos[{0, 0}]), (pos[{0, 1}]));
  EXPECT_LT((pos[{0, 0}]), (pos[{1, 1}]));  // cross-coupling via FCFS
  EXPECT_LT((pos[{1, 0}]), (pos[{0, 1}]));
  EXPECT_LT((pos[{1, 0}]), (pos[{1, 1}]));
}

TEST(Order, CycleReturnsNullopt) {
  EXPECT_FALSE(dependency_order(logical_loop()).has_value());
  EXPECT_FALSE(dependency_order(fcfs_revisit()).has_value());
}

TEST(Order, EveryDependencyPrecedes) {
  // Property over random shops of each scheduler and a mix: the order lists
  // every subjob once, every edge u -> v points forward in the order and
  // strictly down the waves, and each depth is the longest chain ending at
  // its node (0 for sources) -- what the bounds wavefront schedules by.
  const SchedulerKind kinds[] = {SchedulerKind::kSpp, SchedulerKind::kSpnp,
                                 SchedulerKind::kFcfs};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    JobShopConfig cfg;
    cfg.stages = 4;
    cfg.processors_per_stage = 2;
    cfg.jobs = 6;
    cfg.scheduler = kinds[seed % 3];
    Rng rng(seed);
    System sys = generate_jobshop(cfg, rng);
    if (seed > 9) {  // heterogeneous mix (paper §6)
      sys.set_scheduler(1, SchedulerKind::kSpnp);
      sys.set_scheduler(2, SchedulerKind::kFcfs);
    }
    assign_proportional_deadline_monotonic(sys);
    const auto dep = dependency_order(sys);
    ASSERT_TRUE(dep.has_value()) << "seed " << seed;
    const DependencyGraph& g = dep->graph;
    const int n = g.node_count();
    ASSERT_EQ(static_cast<int>(dep->order.size()), n);
    ASSERT_EQ(static_cast<int>(dep->depth.size()), n);

    std::vector<int> pos(n, -1);
    for (int i = 0; i < n; ++i) {
      const int v = g.node(dep->order[i]);
      ASSERT_EQ(pos[v], -1) << "seed " << seed << ": node listed twice";
      pos[v] = i;
    }
    std::vector<int> longest(n, 0);
    for (const SubjobRef& r : dep->order) {
      const int u = g.node(r);
      for (int v : g.succ[u]) {
        EXPECT_LT(pos[u], pos[v]) << "seed " << seed;
        EXPECT_LT(dep->depth[u], dep->depth[v]) << "seed " << seed;
        longest[v] = std::max(longest[v], longest[u] + 1);
      }
    }
    EXPECT_EQ(dep->depth, longest) << "seed " << seed;
  }
}

TEST(Order, CheckedOrderReportsTheEngineErrors) {
  // The acyclic engines' structural gate: its messages are exactly the
  // errors BoundsAnalyzer reports.
  std::string error;
  EXPECT_FALSE(checked_dependency_order(logical_loop(), error).has_value());
  EXPECT_EQ(error, BoundsAnalyzer().analyze(logical_loop()).error);
  EXPECT_EQ(error,
            "subjob dependency graph has a cycle; use IterativeBoundsAnalyzer");

  System invalid(1, SchedulerKind::kSpp);
  invalid.add_job(make_job("A", {{3, 1.0, 1}}));
  error.clear();
  EXPECT_FALSE(checked_dependency_order(invalid, error).has_value());
  EXPECT_EQ(error, "invalid system: job 0 hop 0 references invalid "
                   "processor 3");
  EXPECT_EQ(error, BoundsAnalyzer().analyze(invalid).error);

  error.clear();
  EXPECT_FALSE(checked_dependency_order(fcfs_revisit(), error).has_value());
  EXPECT_EQ(error, BoundsAnalyzer().analyze(fcfs_revisit()).error);

  System fine(1, SchedulerKind::kSpp);
  fine.add_job(make_job("A", {{0, 1.0, 1}}));
  error.clear();
  EXPECT_TRUE(checked_dependency_order(fine, error).has_value());
  EXPECT_TRUE(error.empty());
}

}  // namespace
}  // namespace rta
