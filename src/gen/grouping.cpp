#include "gen/grouping.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>

namespace giph {

GroupedGraph group_operators(const TaskGraph& g, int target_nodes) {
  if (target_nodes < 1) {
    throw std::invalid_argument("group_operators: target_nodes must be >= 1");
  }
  const int n = g.num_tasks();

  // Working representation: per-node parent/child byte maps over "alive" ids.
  std::vector<Task> task(n);
  std::vector<std::map<int, double>> out(n);  // v -> {child: bytes}
  std::vector<std::set<int>> in(n);           // v -> parents
  std::vector<bool> alive(n, true);
  std::vector<int> root(n);  // union-find style: original -> representative
  for (int v = 0; v < n; ++v) {
    task[v] = g.task(v);
    root[v] = v;
  }
  for (const DataLink& e : g.edges()) {
    out[e.src][e.dst] += e.bytes;
    in[e.dst].insert(e.src);
  }

  int count = n;
  while (count > target_nodes) {
    // Find the alive node with in-degree exactly 1 and minimum compute.
    int best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int v = 0; v < n; ++v) {
      if (alive[v] && in[v].size() == 1 && task[v].compute < best_cost) {
        best = v;
        best_cost = task[v].compute;
      }
    }
    if (best < 0) break;  // nothing mergeable
    const int p = *in[best].begin();

    task[p].compute += task[best].compute;
    task[p].requires_hw |= task[best].requires_hw;
    // Reroute best's out-edges to p (self-edge p->p from the original p->best
    // link never arises: that link lives in out[p], not out[best]).
    for (const auto& [c, bytes] : out[best]) {
      out[p][c] += bytes;
      in[c].erase(best);
      in[c].insert(p);
    }
    out[p].erase(best);
    alive[best] = false;
    root[best] = p;
    out[best].clear();
    in[best].clear();
    --count;
  }

  // Path-compress representatives.
  auto find = [&](int v) {
    while (root[v] != v) v = root[v];
    return v;
  };

  GroupedGraph result;
  std::vector<int> new_id(n, -1);
  for (int v = 0; v < n; ++v) {
    if (alive[v]) new_id[v] = result.graph.add_task(task[v]);
  }
  for (int v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    for (const auto& [c, bytes] : out[v]) {
      result.graph.add_edge(new_id[v], new_id[c], bytes);
    }
  }
  result.group_of.resize(n);
  for (int v = 0; v < n; ++v) result.group_of[v] = new_id[find(v)];
  return result;
}

namespace {

/// Affinity-guided topological order: Kahn's algorithm where, among ready
/// tasks, the one with the most incoming bytes from already-ordered tasks is
/// emitted first (ties -> smaller task id). A task's affinity only changes
/// while its parents are being emitted, so it is final by the time the task
/// becomes ready and each task is pushed exactly once.
std::vector<int> affinity_order(const TaskGraph& g) {
  const int n = g.num_tasks();
  std::vector<int> indeg(n, 0);
  std::vector<double> affinity(n, 0.0);
  for (const DataLink& e : g.edges()) ++indeg[e.dst];

  struct Entry {
    double affinity;
    int id;
  };
  auto worse = [](const Entry& a, const Entry& b) {
    if (a.affinity != b.affinity) return a.affinity < b.affinity;
    return a.id > b.id;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> ready(worse);
  for (int v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push({0.0, v});
  }

  std::vector<int> order;
  order.reserve(n);
  while (!ready.empty()) {
    const int v = ready.top().id;
    ready.pop();
    order.push_back(v);
    for (int e : g.out_edges(v)) {
      const DataLink& link = g.edge(e);
      affinity[link.dst] += link.bytes;
      if (--indeg[link.dst] == 0) ready.push({affinity[link.dst], link.dst});
    }
  }
  if (static_cast<int>(order.size()) != n) {
    throw std::invalid_argument("partition_tasks: graph is not a DAG");
  }
  return order;
}

/// True when some device of n can host a task with this requirement mask and
/// pin (pin < 0 = unpinned).
bool cluster_feasible(const DeviceNetwork& n, HwMask requires_hw, int pin) {
  if (pin >= 0) {
    return pin < n.num_devices() && hw_compatible(requires_hw, n.device(pin).supports_hw);
  }
  for (int d = 0; d < n.num_devices(); ++d) {
    if (hw_compatible(requires_hw, n.device(d).supports_hw)) return true;
  }
  return false;
}

}  // namespace

GraphPartition partition_tasks(const TaskGraph& g, const DeviceNetwork& n,
                               const PartitionOptions& opt) {
  if (opt.num_clusters < 1) {
    throw std::invalid_argument("partition_tasks: num_clusters must be >= 1");
  }
  if (!(opt.balance >= 1.0)) {
    throw std::invalid_argument("partition_tasks: balance must be >= 1");
  }
  GraphPartition part;
  const int nt = g.num_tasks();
  if (nt == 0) return part;

  const std::vector<int> order = affinity_order(g);
  const int k = std::min(opt.num_clusters, nt);
  const double ideal = g.total_compute() / k;
  const double cap = opt.balance * ideal;

  // Cut the order into contiguous intervals. A cut is taken on balance
  // grounds (current weight reached the ideal share, or adding the next task
  // would blow the cap) while target clusters remain, and is forced when
  // absorbing the next task would make the cluster unplaceable: two members
  // pinned to different devices, or a hardware-requirement union no device
  // supports (only when the task alone is placeable — otherwise the fine
  // problem is infeasible too and cutting cannot help).
  part.cluster_of.assign(nt, -1);
  int cluster = 0;
  double weight = 0.0;
  HwMask mask = 0;
  int pin = -1;
  bool empty = true;
  for (int idx = 0; idx < nt; ++idx) {
    const int v = order[idx];
    const Task& t = g.task(v);
    if (!empty) {
      const int merged_pin = pin >= 0 ? pin : t.pinned;
      const bool pin_conflict = pin >= 0 && t.pinned >= 0 && t.pinned != pin;
      const bool hw_conflict = !pin_conflict &&
                               !cluster_feasible(n, mask | t.requires_hw, merged_pin) &&
                               cluster_feasible(n, t.requires_hw, t.pinned);
      const bool balance_cut =
          cluster < k - 1 && (weight >= ideal || weight + t.compute > cap);
      const bool cap_cut = weight + t.compute > cap && t.compute <= cap;
      if (pin_conflict || hw_conflict || balance_cut || cap_cut) {
        ++cluster;
        weight = 0.0;
        mask = 0;
        pin = -1;
        empty = true;
      }
    }
    part.cluster_of[v] = cluster;
    weight += t.compute;
    mask |= t.requires_hw;
    if (t.pinned >= 0) pin = t.pinned;
    empty = false;
  }
  const int nc = cluster + 1;

  part.members.assign(nc, {});
  for (int v = 0; v < nt; ++v) part.members[part.cluster_of[v]].push_back(v);

  // Coarse nodes: aggregate members (ascending id order keeps the sums
  // deterministic). Coarse edges go low -> high cluster id because intervals
  // are contiguous in a topological order, so the coarse graph is a DAG.
  for (int c = 0; c < nc; ++c) {
    Task agg;
    agg.compute = 0.0;
    agg.requires_hw = 0;
    agg.name = "cluster" + std::to_string(c);
    for (int v : part.members[c]) {
      const Task& t = g.task(v);
      agg.compute += t.compute;
      agg.requires_hw |= t.requires_hw;
      if (t.pinned >= 0) agg.pinned = t.pinned;
    }
    part.coarse.add_task(agg);
  }
  std::map<std::pair<int, int>, double> cross;
  for (const DataLink& e : g.edges()) {
    const int cs = part.cluster_of[e.src];
    const int cd = part.cluster_of[e.dst];
    if (cs == cd) {
      part.internal_bytes += e.bytes;
    } else {
      cross[{cs, cd}] += e.bytes;
    }
  }
  for (const auto& [key, bytes] : cross) {
    part.coarse.add_edge(key.first, key.second, bytes);
  }
  return part;
}

Placement expand_placement(const GraphPartition& part, const Placement& coarse) {
  if (coarse.num_tasks() != part.num_clusters()) {
    throw std::invalid_argument("expand_placement: coarse placement size mismatch");
  }
  const int nt = static_cast<int>(part.cluster_of.size());
  Placement fine(nt);
  for (int c = 0; c < part.num_clusters(); ++c) {
    for (int v : part.members[c]) fine.set(v, coarse.device_of(c));
  }
  return fine;
}

}  // namespace giph
