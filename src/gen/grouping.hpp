#pragma once

#include <vector>

#include "graph/device_network.hpp"
#include "graph/placement.hpp"
#include "graph/task_graph.hpp"

namespace giph {

/// Result of operator grouping: the reduced graph plus, for each original
/// task id, the id of the group node that absorbed it.
struct GroupedGraph {
  TaskGraph graph;
  std::vector<int> group_of;  ///< original task id -> grouped task id
};

/// Coarsens `g` by iteratively merging the node with in-degree one and lowest
/// compute cost into its sole predecessor until at most `target_nodes` nodes
/// remain (Section 5.2). Merging sums compute costs, unions hardware
/// requirements, reroutes the merged node's out-edges to the predecessor, and
/// accumulates data volumes of collapsed parallel edges. Stops early when no
/// in-degree-one node remains.
GroupedGraph group_operators(const TaskGraph& g, int target_nodes);

/// Knobs of the general DAG partitioner (the scale tier's grouper; see
/// DESIGN.md "Hierarchical placement").
struct PartitionOptions {
  /// Target cluster count (>= 1). Clamped to the task count; forced cuts
  /// (conflicting pins, hardware-infeasible unions) may exceed it.
  int num_clusters = 8;
  /// Balance knob: no cluster's compute weight may exceed
  /// `balance * total_compute / num_clusters` unless a single task already
  /// does. Must be >= 1.
  double balance = 1.25;
};

/// A partition of a task graph into clusters plus the coarse cluster graph.
/// Cluster ids follow the affinity order, so every coarse edge points from a
/// lower to a strictly higher cluster id: the coarse graph is acyclic by
/// construction.
struct GraphPartition {
  std::vector<int> cluster_of;            ///< fine task id -> cluster id
  std::vector<std::vector<int>> members;  ///< cluster -> fine task ids (ascending)
  /// One node per cluster: compute = sum of member computes, requires_hw =
  /// union of member masks, pinned = the members' common pin (or -1). One
  /// edge per cluster pair connected by at least one fine cross edge,
  /// carrying the summed bytes of those edges.
  TaskGraph coarse;
  /// Bytes of fine edges absorbed inside clusters; coarse.total_bytes() plus
  /// this equals the fine graph's total (up to summation order).
  double internal_bytes = 0.0;

  int num_clusters() const noexcept { return coarse.num_tasks(); }
};

/// Deterministic multilevel-style DAG partitioner: tasks are laid out in a
/// communication-affinity-guided topological order (ready tasks with the most
/// bytes attached to already-ordered tasks go first), then the order is cut
/// into up to `opt.num_clusters` contiguous intervals of balanced compute
/// weight. Interval cuts are additionally forced where merging would create a
/// cluster with conflicting pinned devices or a hardware-requirement union no
/// device of `n` supports, so the coarse problem is feasible whenever the
/// fine one is. Pure function of (g, n, opt): repeated runs, any thread.
/// Throws std::invalid_argument on num_clusters < 1 or balance < 1.
GraphPartition partition_tasks(const TaskGraph& g, const DeviceNetwork& n,
                               const PartitionOptions& opt);

/// Expands a coarse (per-cluster) placement to a fine (per-task) placement:
/// every task gets its cluster's device. Feasibility of the result follows
/// from the union-mask/pin cuts of partition_tasks whenever `coarse` is
/// feasible on the coarse graph (a cluster containing pinned members has a
/// pinned coarse node, so a feasible coarse placement already lands its
/// members on the pin).
Placement expand_placement(const GraphPartition& part, const Placement& coarse);

}  // namespace giph
