#include "sim/schedule_index.hpp"

#include <algorithm>
#include <limits>

namespace giph {

void ScheduleIndex::build(const Schedule& sched, const Placement& p, int num_devices) {
  const int nv = static_cast<int>(sched.tasks.size());
  // Counting sort by device: offsets_[d+1] first holds the count for d, then
  // the exclusive prefix sum, then the insertion cursor while filling.
  offsets_.assign(num_devices + 1, 0);
  for (int v = 0; v < nv; ++v) {
    const int d = p.device_of(v);
    if (d >= 0) ++offsets_[d + 1];
  }
  for (int d = 0; d < num_devices; ++d) offsets_[d + 1] += offsets_[d];
  entries_.resize(offsets_[num_devices]);

  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (int v = 0; v < nv; ++v) {
    const int d = p.device_of(v);
    if (d < 0) continue;
    entries_[cursor_[d]++] = Entry{sched.tasks[v].start, sched.tasks[v].finish};
  }
  for (int d = 0; d < num_devices; ++d) {
    auto first = entries_.begin() + offsets_[d];
    auto last = entries_.begin() + offsets_[d + 1];
    std::sort(first, last,
              [](const Entry& a, const Entry& b) { return a.start < b.start; });
    // Turn finish into a prefix max so "max finish among starts < t" is a
    // single lookup after the binary search.
    double run = -std::numeric_limits<double>::infinity();
    for (auto it = first; it != last; ++it) {
      run = std::max(run, it->max_finish);
      it->max_finish = run;
    }
  }
}

double ScheduleIndex::max_finish_before(int d, double start) const {
  const auto first = entries_.begin() + offsets_[d];
  const auto last = entries_.begin() + offsets_[d + 1];
  // First entry with entry.start >= start; everything before it started
  // strictly earlier.
  const auto it = std::lower_bound(
      first, last, start, [](const Entry& e, double t) { return e.start < t; });
  if (it == first) return -std::numeric_limits<double>::infinity();
  return (it - 1)->max_finish;
}

double earliest_start_on_queued(const Schedule& sched, const TaskGraph& g,
                                const DeviceNetwork& n, const Placement& p,
                                const LatencyModel& lat, const ScheduleIndex& index,
                                int v, int d) {
  double est = earliest_start_on(sched, g, n, p, lat, v, d);
  // Same exclusion rule as the O(V) scan: only tasks starting strictly before
  // v block it; v itself has start == start so strictness drops it too. The
  // prefix max is order-independent, so the result is exactly equal.
  const double busy = index.max_finish_before(d, sched.tasks[v].start);
  return std::max(est, busy);
}

namespace {

// Revalidates the workspace's model caches against the current (g, n, lat)
// stamps, dropping them when anything changed. Returns true when the stamps
// matched (individual rows may still be invalid — comm_src tracks that).
bool revalidate_cache(const TaskGraph& g, const DeviceNetwork& n,
                      const LatencyModel& lat, EstSweepWorkspace& ws) {
  if (ws.g_stamp == g.stamp() && ws.n_stamp == n.stamp() &&
      ws.lat_stamp == lat.stamp()) {
    return true;
  }
  ws.g_stamp = g.stamp();
  ws.n_stamp = n.stamp();
  ws.lat_stamp = lat.stamp();
  ws.comm_src.clear();
  ws.compute_tbl.clear();
  return false;
}

}  // namespace

const std::vector<double>& compute_sweep(const TaskGraph& g, const DeviceNetwork& n,
                                         const LatencyModel& lat,
                                         EstSweepWorkspace& ws) {
  const int nv = g.num_tasks();
  const int nd = n.num_devices();
  const std::size_t want = static_cast<std::size_t>(nv) * nd;
  if (revalidate_cache(g, n, lat, ws) && ws.compute_tbl.size() == want) {
    return ws.compute_tbl;
  }
  ws.compute_tbl.resize(want);
  for (int v = 0; v < nv; ++v) {
    lat.compute_time_row(g, n, v, ws.compute_tbl.data() + static_cast<std::size_t>(v) * nd);
  }
  return ws.compute_tbl;
}

namespace {

// The one body behind est_sweep and est_sweep_subset: fills the rows of the
// tasks with in_subset[v] != 0 (every row when in_subset is null) and leaves
// the others zeroed.
void sweep_rows(const Schedule& sched, const TaskGraph& g, const DeviceNetwork& n,
                const Placement& p, const LatencyModel& lat, const char* in_subset,
                EstSweepWorkspace& ws) {
  const int nv = g.num_tasks();
  const int nd = n.num_devices();
  const int ne = g.num_edges();
  const auto wanted = [in_subset](int v) {
    return in_subset == nullptr || in_subset[v] != 0;
  };
  ws.est.assign(static_cast<std::size_t>(nv) * nd, 0.0);

  // Comm-row cache: a row depends only on (edge, source device, model), so
  // between consecutive sweeps of a search — where one task moved — almost
  // every row (and its nd divisions) is reusable as-is. Rows are validated
  // per edge through comm_src; the stamps guard everything else.
  if (!revalidate_cache(g, n, lat, ws) ||
      ws.comm_rows.size() != static_cast<std::size_t>(ne) * nd ||
      ws.comm_src.size() != static_cast<std::size_t>(ne)) {
    ws.comm_rows.assign(static_cast<std::size_t>(ne) * nd, 0.0);
    ws.comm_src.assign(static_cast<std::size_t>(ne), -1);
  }

  // Parent-arrival terms: one comm-time row per edge, accumulated into the
  // destination task's row. Max over doubles is exact, so accumulation order
  // (here: per task in in-edge order, matching the per-query loop anyway)
  // cannot perturb the result.
  for (int v = 0; v < nv; ++v) {
    if (!wanted(v)) continue;
    double* row = ws.est.data() + static_cast<std::size_t>(v) * nd;
    for (int e : g.in_edges(v)) {
      const int parent = g.edge(e).src;
      const double pf = sched.tasks[parent].finish;
      const int k = p.device_of(parent);
      double* crow = ws.comm_rows.data() + static_cast<std::size_t>(e) * nd;
      if (ws.comm_src[e] != k) {
        lat.comm_time_row(g, n, e, k, crow);
        ws.comm_src[e] = k;
      }
      for (int d = 0; d < nd; ++d) {
        row[d] = std::max(row[d], pf + crow[d]);
      }
    }
  }

  // Device-busy terms: walk tasks in ascending start order keeping a running
  // max finish per device. Every member of a group of equal starts reads the
  // maxes before any member's finish is folded in, which is exactly the
  // per-query "tasks starting strictly before v" rule (v never blocks
  // itself: its own start is never strictly before itself). The walk sees
  // every task's finish (any task can block a wanted one), but only wanted
  // rows are updated.
  ws.order.resize(nv);
  for (int v = 0; v < nv; ++v) ws.order[v] = v;
  std::sort(ws.order.begin(), ws.order.end(), [&sched](int a, int b) {
    return sched.tasks[a].start < sched.tasks[b].start;
  });
  ws.dev_max.assign(nd, -std::numeric_limits<double>::infinity());
  int i = 0;
  while (i < nv) {
    int j = i;
    const double start = sched.tasks[ws.order[i]].start;
    while (j < nv && sched.tasks[ws.order[j]].start == start) ++j;
    for (int k = i; k < j; ++k) {
      if (!wanted(ws.order[k])) continue;
      double* row = ws.est.data() + static_cast<std::size_t>(ws.order[k]) * nd;
      for (int d = 0; d < nd; ++d) row[d] = std::max(row[d], ws.dev_max[d]);
    }
    for (int k = i; k < j; ++k) {
      const int v = ws.order[k];
      const int d = p.device_of(v);
      if (d >= 0) ws.dev_max[d] = std::max(ws.dev_max[d], sched.tasks[v].finish);
    }
    i = j;
  }
}

}  // namespace

void est_sweep(const Schedule& sched, const TaskGraph& g, const DeviceNetwork& n,
               const Placement& p, const LatencyModel& lat, EstSweepWorkspace& ws) {
  sweep_rows(sched, g, n, p, lat, nullptr, ws);
}

void est_sweep_subset(const Schedule& sched, const TaskGraph& g, const DeviceNetwork& n,
                      const Placement& p, const LatencyModel& lat,
                      const std::vector<int>& subset, EstSweepWorkspace& ws) {
  ws.in_subset.assign(g.num_tasks(), 0);
  for (int v : subset) ws.in_subset.at(v) = 1;
  sweep_rows(sched, g, n, p, lat, ws.in_subset.data(), ws);
}

}  // namespace giph
