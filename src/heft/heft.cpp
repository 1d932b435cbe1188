#include "heft/heft.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace giph {
namespace {

/// Per-device busy intervals kept sorted by start time, supporting
/// insertion-based earliest-start queries.
class DeviceTimeline {
 public:
  /// Earliest time >= ready at which a gap of length `dur` exists.
  double earliest_slot(double ready, double dur) const {
    double t = ready;
    for (const auto& [s, f] : busy_) {
      if (t + dur <= s) return t;  // fits before this interval
      t = std::max(t, f);
    }
    return t;
  }

  void occupy(double start, double finish) {
    auto it = std::lower_bound(busy_.begin(), busy_.end(), std::pair{start, finish});
    busy_.insert(it, {start, finish});
  }

 private:
  std::vector<std::pair<double, double>> busy_;
};

}  // namespace

std::vector<double> upward_ranks(const TaskGraph& g, const DeviceNetwork& n,
                                 const LatencyModel& lat) {
  const int nv = g.num_tasks();
  // Averaged computation cost over feasible devices.
  std::vector<double> wbar(nv, 0.0);
  for (int v = 0; v < nv; ++v) {
    const auto devs = feasible_devices(g, n, v);
    double s = 0.0;
    for (int d : devs) s += lat.compute_time(g, n, v, d);
    wbar[v] = devs.empty() ? 0.0 : s / static_cast<double>(devs.size());
  }
  // Averaged communication cost per edge using network-wide means.
  const double mean_bw = n.mean_bandwidth();
  const double mean_dl = n.mean_delay();
  auto cbar = [&](int e) {
    if (n.num_devices() < 2) return 0.0;
    return mean_dl + g.edge(e).bytes / mean_bw;
  };

  std::vector<double> rank(nv, 0.0);
  const auto& topo = g.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const int v = *it;
    double best_child = 0.0;
    for (int e : g.out_edges(v)) {
      best_child = std::max(best_child, cbar(e) + rank[g.edge(e).dst]);
    }
    rank[v] = wbar[v] + best_child;
  }
  return rank;
}

HeftResult heft_schedule(const TaskGraph& g, const DeviceNetwork& n,
                         const LatencyModel& lat) {
  const int nv = g.num_tasks();
  HeftResult res;
  res.placement = Placement(nv);
  res.timing.assign(nv, TaskTiming{});
  res.upward_rank = upward_ranks(g, n, lat);

  // Descending upward rank, with topological order as the tie-break so the
  // precedence constraint holds even for zero-cost tasks.
  std::vector<int> order = g.topological_order();
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return res.upward_rank[a] > res.upward_rank[b];
  });

  std::vector<DeviceTimeline> timeline(n.num_devices());

  for (int v : order) {
    double best_eft = std::numeric_limits<double>::infinity();
    double best_est = 0.0;
    int best_dev = -1;
    const std::vector<int> devices = feasible_devices(g, n, v);
    if (devices.empty()) {
      throw std::invalid_argument("heft_schedule: task " + std::to_string(v) +
                                  " has no feasible device");
    }
    for (int d : devices) {
      double ready = 0.0;
      for (int e : g.in_edges(v)) {
        const int parent = g.edge(e).src;
        const int pd = res.placement.device_of(parent);
        ready = std::max(ready, res.timing[parent].finish + lat.comm_time(g, n, e, pd, d));
      }
      const double w = lat.compute_time(g, n, v, d);
      const double est = timeline[d].earliest_slot(ready, w);
      const double eft = est + w;
      if (eft < best_eft) {
        best_eft = eft;
        best_est = est;
        best_dev = d;
      }
    }
    res.placement.set(v, best_dev);
    res.timing[v] = TaskTiming{best_est, best_eft};
    timeline[best_dev].occupy(best_est, best_eft);
    res.heft_makespan = std::max(res.heft_makespan, best_eft);
  }
  return res;
}

// Both overloads walk feasible_devices(g, n, v)'s ascending order without
// materializing it, so a warm search step (GiPH-task-EFT's act) allocates
// nothing here.
int eft_select_device(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                      const LatencyModel& lat, const Schedule& sched, int v) {
  double best_eft = std::numeric_limits<double>::infinity();
  int best_dev = -1;
  for (int d = 0; d < n.num_devices(); ++d) {
    if (!device_feasible(g, n, v, d)) continue;
    const double est = earliest_start_on_queued(sched, g, n, p, lat, v, d);
    const double eft = est + lat.compute_time(g, n, v, d);
    if (eft < best_eft) {
      best_eft = eft;
      best_dev = d;
    }
  }
  return best_dev;
}

int eft_select_device(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                      const LatencyModel& lat, const Schedule& sched,
                      const ScheduleIndex& index, int v) {
  double best_eft = std::numeric_limits<double>::infinity();
  int best_dev = -1;
  for (int d = 0; d < n.num_devices(); ++d) {
    if (!device_feasible(g, n, v, d)) continue;
    const double est = earliest_start_on_queued(sched, g, n, p, lat, index, v, d);
    const double eft = est + lat.compute_time(g, n, v, d);
    if (eft < best_eft) {
      best_eft = eft;
      best_dev = d;
    }
  }
  return best_dev;
}

}  // namespace giph
