#pragma once

#include <utility>
#include <vector>

#include "graph/placement.hpp"

namespace giph {

/// Structure-only view of a directed acyclic graph, shared by the GNN
/// encoders: the gpNet H, the raw task graph G (used by GiPH-task-EFT and
/// Placeto), or any other DAG.
struct GraphView {
  int num_nodes = 0;
  std::vector<std::pair<int, int>> edges;    ///< (src, dst) node ids
  std::vector<std::vector<int>> in_edges;    ///< per node: incoming edge ids
  std::vector<std::vector<int>> out_edges;   ///< per node: outgoing edge ids
  std::vector<int> topo;                     ///< topological node order

  int add_edge(int src, int dst);
  /// Empties the view down to `n` nodes and no edges, keeping the inner
  /// edge lists' capacity, so an in-place rebuild of a same-shape graph
  /// allocates nothing.
  void reset(int n);
  /// Computes `topo` with Kahn's algorithm; throws std::logic_error on cycles.
  void finalize();
};

/// Builds a GraphView mirroring a task graph (edge ids match g's edge ids).
GraphView graph_view_of(const TaskGraph& g);
/// In-place form of graph_view_of: rebuilds `view` reusing its buffers.
void graph_view_of(const TaskGraph& g, GraphView& view);

/// The gpNet representation H of a placement P = (G, N, M) (Section 4.2.1,
/// Algorithm B.1). Node u = (task, device) is one feasible placement option
/// and simultaneously one MDP action; pivots are the options currently chosen
/// by M. Edges connect options of dependent tasks when at least one endpoint
/// is a pivot.
struct GpNet {
  GraphView view;
  std::vector<int> node_task;    ///< per gpNet node: task id v_i
  std::vector<int> node_device;  ///< per gpNet node: device id d_j
  std::vector<bool> is_pivot;    ///< per gpNet node: in V_{H,P}?
  std::vector<std::vector<int>> options;  ///< per task: its option node ids O_i
  std::vector<int> pivot_of_task;         ///< per task: its pivot node id
  std::vector<int> edge_task_edge;        ///< per gpNet edge: originating edge id in G

  int num_nodes() const noexcept { return view.num_nodes; }
  int num_edges() const noexcept { return static_cast<int>(view.edges.size()); }
};

/// The one gpNet emitter: rebuilds `net` in place as the gpNet of (g, n,
/// placement), reusing every buffer `net` already holds, so a warm rebuild
/// on a same-shape instance allocates nothing. With k < 0 every feasible
/// (task, device) pair becomes a node (build_gpnet); with k >= 0 only the
/// pivot plus the k most promising alternatives do (build_gpnet_topk, which
/// documents the ranking and `est`). The result equals the by-value builders'
/// field for field, edge order included. Throws std::invalid_argument on an
/// infeasible placement or, for k >= 0, an est table of the wrong size.
void build_gpnet_into(GpNet& net, const TaskGraph& g, const DeviceNetwork& n,
                      const Placement& placement,
                      const std::vector<std::vector<int>>& feasible, int k = -1,
                      const std::vector<double>& est = {});

/// Constructs the gpNet for (g, n, placement) with the given per-task
/// feasible device sets. Node counts satisfy |V_H| = sum_i |D_i| and
/// |E_H| = sum_i |D_i| |E_i| - |E|.
GpNet build_gpnet(const TaskGraph& g, const DeviceNetwork& n, const Placement& placement,
                  const std::vector<std::vector<int>>& feasible);

/// Sparse gpNet: per task, only the current pivot plus the k most promising
/// alternative devices become option nodes — promise ranked by ascending
/// earliest start time from `est` (a row-major num_tasks x num_devices table,
/// e.g. EstSweepWorkspace::est after est_sweep), ties broken by position in
/// the feasible list. Selected options are emitted in feasible-list order, so
/// when k >= |D_i| - 1 for every task (in particular whenever k >= D) the
/// construction is node-for-node, edge-for-edge identical to build_gpnet —
/// the dense generator is the k = infinity special case, not a separate code
/// path to keep in sync. With small k the node count drops from sum |D_i| to
/// at most V * (k + 1), the edge count correspondingly, which is what makes
/// 1k+-task graphs on 100+ devices tractable (see DESIGN.md "Hierarchical
/// placement"). Throws std::invalid_argument on k < 0 or an est table of the
/// wrong size.
GpNet build_gpnet_topk(const TaskGraph& g, const DeviceNetwork& n,
                       const Placement& placement,
                       const std::vector<std::vector<int>>& feasible, int k,
                       const std::vector<double>& est);

}  // namespace giph
