#include "analysis/order.hpp"

#include <algorithm>
#include <utility>

namespace rta {

namespace {

DependencyGraph build_dependency_graph(const System& system) {
  DependencyGraph g;
  g.node_base.assign(system.job_count() + 1, 0);
  for (int k = 0; k < system.job_count(); ++k) {
    g.node_base[k + 1] =
        g.node_base[k] + static_cast<int>(system.job(k).chain.size());
  }
  g.succ.assign(g.node_count(), {});

  auto add_edge = [&](SubjobRef from, SubjobRef to) {
    g.succ[g.node(from)].push_back(g.node(to));
  };

  for (int k = 0; k < system.job_count(); ++k) {
    for (int h = 1; h < static_cast<int>(system.job(k).chain.size()); ++h) {
      add_edge({k, h - 1}, {k, h});
    }
  }
  for (int p = 0; p < system.processor_count(); ++p) {
    const auto on_p = system.subjobs_on(p);
    if (system.scheduler(p) == SchedulerKind::kFcfs) {
      for (const SubjobRef& u : on_p) {
        if (u.hop == 0) continue;
        for (const SubjobRef& s : on_p) add_edge({u.job, u.hop - 1}, s);
      }
    } else {
      for (const SubjobRef& hi : on_p) {
        for (const SubjobRef& lo : on_p) {
          if (system.subjob(hi).priority < system.subjob(lo).priority) {
            add_edge(hi, lo);
          }
        }
      }
    }
  }
  return g;
}

}  // namespace

std::optional<DependencyOrder> dependency_order(const System& system) {
  DependencyOrder out;
  out.graph = build_dependency_graph(system);
  const DependencyGraph& g = out.graph;
  const int n = g.node_count();

  std::vector<int> indeg(n, 0);
  for (const auto& edges : g.succ) {
    for (int v : edges) ++indeg[v];
  }

  // Map node index back to SubjobRef.
  std::vector<SubjobRef> ref_of(n);
  for (int k = 0; k < system.job_count(); ++k) {
    for (int h = 0; h < static_cast<int>(system.job(k).chain.size()); ++h) {
      ref_of[g.node_base[k] + h] = {k, h};
    }
  }

  std::vector<int> ready;
  for (int v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  out.order.reserve(n);
  out.depth.assign(n, 0);
  while (!ready.empty()) {
    const int v = ready.back();
    ready.pop_back();
    out.order.push_back(ref_of[v]);
    for (int w : g.succ[v]) {
      out.depth[w] = std::max(out.depth[w], out.depth[v] + 1);
      if (--indeg[w] == 0) ready.push_back(w);
    }
  }
  if (static_cast<int>(out.order.size()) != n) return std::nullopt;
  return out;
}

std::optional<DependencyOrder> checked_dependency_order(const System& system,
                                                        std::string& error) {
  if (auto invalid = system.validation_error()) {
    error = std::move(*invalid);
    return std::nullopt;
  }
  auto order = dependency_order(system);
  if (!order) {
    error = "subjob dependency graph has a cycle; use IterativeBoundsAnalyzer";
  }
  return order;
}

}  // namespace rta
