// Dependency ordering of subjob computations.
//
// A subjob's service (or service bounds) can be computed once (a) its
// arrival curve is known -- i.e. its predecessor hop is done -- and (b) the
// curves it is coupled to on its processor are done: higher-priority subjobs
// under SPP/SPNP, or the predecessors of *all* co-located subjobs under FCFS
// (they feed the shared utilization function of Theorem 7).
//
// This module is the one place that knows that edge rule and the one place
// that runs Kahn's algorithm over it. The acyclic engines build the order
// once per analysis and reuse it for the cycle check, the session's dirty
// closure and every horizon-doubled pass.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/system.hpp"

namespace rta {

/// Edges of the computation-dependency graph, as adjacency lists over
/// job-major subjob indices.
struct DependencyGraph {
  std::vector<int> node_base;            ///< prefix sums: node_base[k] + hop
  std::vector<std::vector<int>> succ;    ///< successor lists
  [[nodiscard]] int node(SubjobRef r) const { return node_base[r.job] + r.hop; }
  [[nodiscard]] int node_count() const {
    return node_base.empty() ? 0 : node_base.back();
  }
};

/// The dependency graph of an acyclic system and one Kahn pass over it.
struct DependencyOrder {
  DependencyGraph graph;
  std::vector<SubjobRef> order;  ///< every subjob, dependencies first
  /// Per node: length of the longest dependency chain ending at it, so all
  /// inputs of a depth-d subjob sit at depths < d (the wavefront's waves).
  std::vector<int> depth;
};

/// Build `system`'s dependency graph and order it, or nullopt if the graph
/// has a cycle (physical or logical loop, paper §6); cyclic systems are
/// handled by IterativeBoundsAnalyzer.
[[nodiscard]] std::optional<DependencyOrder> dependency_order(
    const System& system);

/// The structural gate of the acyclic engines (BoundsAnalyzer,
/// ExactSppAnalyzer, service::AdmissionSession): the dependency order of a
/// valid acyclic `system`, or nullopt with `error` set to the message those
/// engines report -- the first validation problem, else the cycle.
[[nodiscard]] std::optional<DependencyOrder> checked_dependency_order(
    const System& system, std::string& error);

}  // namespace rta
