#include "core/features.hpp"

#include <algorithm>

namespace giph {
namespace {

constexpr double kEps = 1e-12;

double safe_div(double a, double b) { return a / std::max(b, kEps); }

}  // namespace

FeatureScales compute_feature_scales(const TaskGraph& g, const DeviceNetwork& n,
                                     const LatencyModel& lat) {
  FeatureScales s;
  const int nv = g.num_tasks();

  double compute = 0.0;
  for (int v = 0; v < nv; ++v) compute += g.task(v).compute;
  s.compute = nv > 0 ? compute / nv : 1.0;

  s.speed = n.mean_speed();
  s.bw = n.mean_bandwidth();
  s.dl = n.mean_delay();

  double w = 0.0;
  int w_count = 0;
  for (int v = 0; v < nv; ++v) {
    for (int d : feasible_devices(g, n, v)) {
      w += lat.compute_time(g, n, v, d);
      ++w_count;
    }
  }
  s.w = w_count > 0 ? w / w_count : 1.0;

  double bytes = 0.0;
  for (const DataLink& e : g.edges()) bytes += e.bytes;
  s.bytes = g.num_edges() > 0 ? bytes / g.num_edges() : 1.0;

  // Mean communication time estimated from network-wide means.
  s.c = s.dl + safe_div(s.bytes, s.bw);

  // Guard all scales against zero so divisions stay finite.
  for (double* p : {&s.compute, &s.speed, &s.w, &s.bytes, &s.bw, &s.dl, &s.c}) {
    if (*p <= 0.0) *p = 1.0;
  }
  return s;
}

GpNetFeatures build_gpnet_features(const GpNet& net, const TaskGraph& g,
                                   const DeviceNetwork& n, const Placement& placement,
                                   const LatencyModel& lat, const Schedule& sched,
                                   const FeatureScales& scales, bool include_potential,
                                   const ScheduleIndex* /*index*/,
                                   const EstSweepWorkspace* precomputed) {
  GpNetFeatures f;
  build_gpnet_features_into(f, net, g, n, placement, lat, sched, scales,
                            include_potential, precomputed);
  return f;
}

void build_gpnet_features_into(GpNetFeatures& f, const GpNet& net, const TaskGraph& g,
                               const DeviceNetwork& n, const Placement& placement,
                               const LatencyModel& lat, const Schedule& sched,
                               const FeatureScales& scales, bool include_potential,
                               const EstSweepWorkspace* precomputed) {
  // The start-time-potential feature needs the EST of every (task, device)
  // candidate — exactly what one est_sweep batch computes, bitwise equal to
  // per-node earliest_start_on_queued queries. A caller that already swept
  // this step (sparse gpNet construction) passes its workspace through
  // `precomputed` and the sweep is not repeated.
  thread_local EstSweepWorkspace local_sweep;
  const int nd = n.num_devices();
  const EstSweepWorkspace* sweep = precomputed;
  if (include_potential && sweep == nullptr) {
    est_sweep(sched, g, n, placement, lat, local_sweep);
    sweep = &local_sweep;
  }
  f.node.assign(net.num_nodes(), kNodeFeatureDim);
  for (int u = 0; u < net.num_nodes(); ++u) {
    const int v = net.node_task[u];
    const int d = net.node_device[u];
    f.node(u, 0) = g.task(v).compute / scales.compute;
    f.node(u, 1) = n.device(d).speed / scales.speed;
    f.node(u, 2) = lat.compute_time(g, n, v, d) / scales.w;
    if (include_potential) {
      const double est = sweep->est[static_cast<std::size_t>(v) * nd + d];
      f.node(u, 3) = (sched.tasks[v].start - est) / scales.w;
    }
  }

  f.edge.assign(net.num_edges(), kEdgeFeatureDim);
  for (int eh = 0; eh < net.num_edges(); ++eh) {
    const auto [u1, u2] = net.view.edges[eh];
    const int ge = net.edge_task_edge[eh];
    const int dk = net.node_device[u1];
    const int dl = net.node_device[u2];
    f.edge(eh, 0) = g.edge(ge).bytes / scales.bytes;
    // Inverse relative bandwidth: 0 for local (infinite-bandwidth) transfers.
    f.edge(eh, 1) = dk == dl ? 0.0 : scales.bw / n.bandwidth(dk, dl);
    f.edge(eh, 2) = n.delay(dk, dl) / scales.dl;
    f.edge(eh, 3) = lat.comm_time(g, n, ge, dk, dl) / scales.c;
  }
}

nn::Matrix append_mean_out_edge_features(const GpNet& net, const GpNetFeatures& f) {
  nn::Matrix out;
  append_mean_out_edge_features(net.view, f.node, f.edge, out);
  return out;
}

void append_mean_out_edge_features(const GraphView& view, const nn::Matrix& node,
                                   const nn::Matrix& edge, nn::Matrix& out) {
  const int nd = node.cols();
  const int ed = edge.cols();
  out.assign(view.num_nodes, nd + ed);
  for (int u = 0; u < view.num_nodes; ++u) {
    for (int j = 0; j < nd; ++j) out(u, j) = node(u, j);
    const auto& oes = view.out_edges[u];
    if (oes.empty()) continue;
    for (int e : oes) {
      for (int j = 0; j < ed; ++j) out(u, nd + j) += edge(e, j);
    }
    for (int j = 0; j < ed; ++j) out(u, nd + j) /= static_cast<double>(oes.size());
  }
}

void build_task_graph_features_into(TaskGraphFeatures& f, const TaskGraph& g,
                                    const DeviceNetwork& n, const Placement& placement,
                                    const LatencyModel& lat, const Schedule& sched,
                                    const std::vector<std::vector<int>>& feasible,
                                    const FeatureScales& scales) {
  // One batched EST sweep replaces the per-(task, device) indexed queries;
  // see build_gpnet_features.
  thread_local EstSweepWorkspace sweep;
  const int nd = n.num_devices();
  est_sweep(sched, g, n, placement, lat, sweep);
  f.node.assign(g.num_tasks(), kNodeFeatureDim);
  for (int v = 0; v < g.num_tasks(); ++v) {
    const int cur = placement.device_of(v);
    f.node(v, 0) = g.task(v).compute / scales.compute;
    f.node(v, 1) = n.device(cur).speed / scales.speed;
    f.node(v, 2) = lat.compute_time(g, n, v, cur) / scales.w;
    // Best start-time improvement achievable by relocating v.
    double best = 0.0;
    const double* row = sweep.est.data() + static_cast<std::size_t>(v) * nd;
    for (int d : feasible[v]) {
      best = std::max(best, sched.tasks[v].start - row[d]);
    }
    f.node(v, 3) = best / scales.w;
  }
  f.edge.assign(g.num_edges(), kEdgeFeatureDim);
  for (int e = 0; e < g.num_edges(); ++e) {
    const int dk = placement.device_of(g.edge(e).src);
    const int dl = placement.device_of(g.edge(e).dst);
    f.edge(e, 0) = g.edge(e).bytes / scales.bytes;
    f.edge(e, 1) = dk == dl ? 0.0 : scales.bw / n.bandwidth(dk, dl);
    f.edge(e, 2) = n.delay(dk, dl) / scales.dl;
    f.edge(e, 3) = lat.comm_time(g, n, e, dk, dl) / scales.c;
  }
}

}  // namespace giph
