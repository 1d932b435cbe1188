#include "core/gpnet.hpp"

#include <algorithm>
#include <stdexcept>

namespace giph {

int GraphView::add_edge(int src, int dst) {
  const int e = static_cast<int>(edges.size());
  edges.emplace_back(src, dst);
  out_edges.at(src).push_back(e);
  in_edges.at(dst).push_back(e);
  return e;
}

void GraphView::reset(int n) {
  num_nodes = n;
  edges.clear();
  topo.clear();
  in_edges.resize(n);
  out_edges.resize(n);
  for (int v = 0; v < n; ++v) {
    in_edges[v].clear();
    out_edges[v].clear();
  }
}

void GraphView::finalize() {
  topo.clear();
  topo.reserve(num_nodes);
  thread_local std::vector<int> indeg;
  indeg.resize(num_nodes);
  for (int v = 0; v < num_nodes; ++v) indeg[v] = static_cast<int>(in_edges[v].size());
  for (int v = 0; v < num_nodes; ++v) {
    if (indeg[v] == 0) topo.push_back(v);
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    for (int e : out_edges[topo[head]]) {
      if (--indeg[edges[e].second] == 0) topo.push_back(edges[e].second);
    }
  }
  if (static_cast<int>(topo.size()) != num_nodes) {
    throw std::logic_error("GraphView::finalize: graph is cyclic");
  }
}

void graph_view_of(const TaskGraph& g, GraphView& view) {
  view.reset(g.num_tasks());
  for (const DataLink& e : g.edges()) view.add_edge(e.src, e.dst);
  view.finalize();
}

GraphView graph_view_of(const TaskGraph& g) {
  GraphView v;
  graph_view_of(g, v);
  return v;
}

void build_gpnet_into(GpNet& net, const TaskGraph& g, const DeviceNetwork& n,
                      const Placement& placement,
                      const std::vector<std::vector<int>>& feasible, int k,
                      const std::vector<double>& est) {
  if (!is_feasible(g, n, placement)) {
    throw std::invalid_argument("build_gpnet: infeasible placement");
  }
  const int nv = g.num_tasks();
  const int nd = n.num_devices();
  if (k >= 0 && est.size() != static_cast<std::size_t>(nv) * nd) {
    throw std::invalid_argument("build_gpnet_topk: est table size mismatch");
  }
  net.node_task.clear();
  net.node_device.clear();
  net.is_pivot.clear();
  net.edge_task_edge.clear();
  net.options.resize(nv);
  for (std::vector<int>& o : net.options) o.clear();
  net.pivot_of_task.assign(nv, -1);

  // Node generation: one node per selected feasible (task, device) pair,
  // tasks in the task graph's topological order and devices in feasible-list
  // order, so gpNet edges (which follow G's edges) always point from lower
  // to higher layout positions and the layout itself is topological. With
  // k >= 0, `cand` ranks the non-pivot devices of one task by (EST, feasible
  // position) and `selected` marks the surviving feasible positions; the
  // pivot is not in `cand`, so it always survives.
  thread_local std::vector<std::pair<double, int>> cand;
  thread_local std::vector<char> selected;
  int num_nodes = 0;
  for (int v : g.topological_order()) {
    const std::vector<int>& fd = feasible[v];
    const int nf = static_cast<int>(fd.size());
    const int pivot_device = placement.device_of(v);
    selected.assign(fd.size(), 1);
    if (k >= 0 && nf > k + 1) {
      const double* row = est.data() + static_cast<std::size_t>(v) * nd;
      cand.clear();
      for (int i = 0; i < nf; ++i) {
        if (fd[i] != pivot_device) cand.emplace_back(row[fd[i]], i);
      }
      std::nth_element(cand.begin(), cand.begin() + k, cand.end());
      selected.assign(fd.size(), 0);
      for (int i = 0; i < k; ++i) selected[cand[i].second] = 1;
      for (int i = 0; i < nf; ++i) {
        if (fd[i] == pivot_device) selected[i] = 1;
      }
    }
    for (int i = 0; i < nf; ++i) {
      if (!selected[i]) continue;
      const int u = num_nodes++;
      const bool pivot = fd[i] == pivot_device;
      net.node_task.push_back(v);
      net.node_device.push_back(fd[i]);
      net.is_pivot.push_back(pivot);
      net.options[v].push_back(u);
      if (pivot) net.pivot_of_task[v] = u;
    }
  }
  net.view.reset(num_nodes);

  // Edge generation: (u1, u2) for each task edge (i, j) when u1 or u2 is a
  // pivot.
  for (int e = 0; e < g.num_edges(); ++e) {
    const DataLink& link = g.edge(e);
    for (int u1 : net.options[link.src]) {
      for (int u2 : net.options[link.dst]) {
        if (net.is_pivot[u1] || net.is_pivot[u2]) {
          net.view.add_edge(u1, u2);
          net.edge_task_edge.push_back(e);
        }
      }
    }
  }
  net.view.finalize();
}

GpNet build_gpnet(const TaskGraph& g, const DeviceNetwork& n, const Placement& placement,
                  const std::vector<std::vector<int>>& feasible) {
  GpNet net;
  build_gpnet_into(net, g, n, placement, feasible);
  return net;
}

GpNet build_gpnet_topk(const TaskGraph& g, const DeviceNetwork& n,
                       const Placement& placement,
                       const std::vector<std::vector<int>>& feasible, int k,
                       const std::vector<double>& est) {
  if (k < 0) throw std::invalid_argument("build_gpnet_topk: k must be >= 0");
  GpNet net;
  build_gpnet_into(net, g, n, placement, feasible, k, est);
  return net;
}

}  // namespace giph
