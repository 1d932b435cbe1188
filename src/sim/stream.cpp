#include "sim/stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "sim/sim_engine.hpp"

namespace giph {
namespace {

// Maps the replicated graph's virtual ids back to the base instance
// (v % V, e % E) before delegating, so any latency model defined on the base
// graph — profile tables included — serves every frame unchanged. Delegation
// passes the base graph and base ids straight through: tiling one frame is
// the identity, which is what keeps the F = 1 reduction bitwise.
class TiledLatencyModel final : public LatencyModel {
 public:
  TiledLatencyModel(const LatencyModel& base, const TaskGraph& base_graph)
      : base_(base),
        g_(base_graph),
        nv_(base_graph.num_tasks()),
        ne_(base_graph.num_edges()) {}

  double compute_time(const TaskGraph&, const DeviceNetwork& n, int v,
                      int k) const override {
    return base_.compute_time(g_, n, v % nv_, k);
  }

  double comm_time(const TaskGraph&, const DeviceNetwork& n, int e, int k,
                   int l) const override {
    return base_.comm_time(g_, n, e % ne_, k, l);
  }

  double comm_startup(const TaskGraph&, const DeviceNetwork& n, int e, int k,
                      int l) const override {
    return base_.comm_startup(g_, n, e % ne_, k, l);
  }

 private:
  const LatencyModel& base_;
  const TaskGraph& g_;
  int nv_;
  int ne_;
};

// Rebuilds ws.replicated as `frames` copies of g (task f*V+v, edge f*E+e, no
// cross-frame edges) unless the cache already holds exactly that.
void ensure_replicated(const TaskGraph& g, int frames, StreamWorkspace& ws) {
  if (ws.cached_frames == frames && ws.cached_graph_stamp == g.stamp()) return;
  const int nv = g.num_tasks();
  const int ne = g.num_edges();
  ws.replicated = TaskGraph{};
  for (int f = 0; f < frames; ++f) {
    for (int v = 0; v < nv; ++v) ws.replicated.add_task(g.task(v));
  }
  for (int f = 0; f < frames; ++f) {
    for (int e = 0; e < ne; ++e) {
      const DataLink& l = g.edge(e);
      ws.replicated.add_edge(f * nv + l.src, f * nv + l.dst, l.bytes);
    }
  }
  ws.entries.clear();
  for (int v = 0; v < nv; ++v) {
    if (g.in_degree(v) == 0) ws.entries.push_back(v);
  }
  ws.cached_graph_stamp = g.stamp();
  ws.cached_frames = frames;
}

// nearest_rank_percentile() of an ascending sample.
double nearest_rank_of_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t count = sorted.size();
  const double rank = std::ceil(q * static_cast<double>(count));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= count) idx = count - 1;
  return sorted[idx];
}

}  // namespace

void validate_stream_options(const StreamOptions& opt, const char* caller) {
  // The caller's name becomes a string only on a throw: a warm streaming run
  // allocates nothing.
  const auto who = [caller] { return std::string(caller); };
  if (opt.frames < 1) {
    throw std::invalid_argument(who() + ": frames must be >= 1, got " +
                                std::to_string(opt.frames));
  }
  if (!std::isfinite(opt.interval) || opt.interval < 0.0) {
    throw std::invalid_argument(who() + ": interval must be finite and >= 0");
  }
  if (std::isnan(opt.arrival_jitter) || opt.arrival_jitter < 0.0 ||
      opt.arrival_jitter >= 1.0) {
    throw std::invalid_argument(
        who() + ": arrival_jitter must be in [0, 1) (a gap draw from "
                "[interval(1-j), interval(1+j)] could go negative)");
  }
  if (opt.arrival_jitter > 0.0 && opt.sim.rng == nullptr) {
    throw std::invalid_argument(who() + ": arrival_jitter > 0 requires an rng");
  }
  validate_sim_options(opt.sim, caller);
}

void simulate_streaming_into(const TaskGraph& g, const DeviceNetwork& n,
                             const Placement& p, const LatencyModel& lat,
                             StreamWorkspace& ws, StreamResult& out,
                             const StreamOptions& opt) {
  validate_stream_options(opt, "simulate_streaming");
  const int frames = opt.frames;
  const int nv = g.num_tasks();
  ensure_replicated(g, frames, ws);

  // Arrival times first: all F - 1 jitter draws precede every simulation draw
  // in frame order (the oracle mirrors this order), and one frame draws
  // nothing, leaving the rng stream exactly where simulate() expects it.
  out.frame_arrival.assign(frames, 0.0);
  for (int f = 1; f < frames; ++f) {
    double gap = opt.interval;
    if (opt.arrival_jitter > 0.0) {
      std::uniform_real_distribution<double> u(
          opt.interval * (1.0 - opt.arrival_jitter),
          opt.interval * (1.0 + opt.arrival_jitter));
      gap = u(*opt.sim.rng);
    }
    out.frame_arrival[f] = out.frame_arrival[f - 1] + gap;
  }

  // Every frame runs on the same devices as the base placement.
  if (ws.replicated_placement.num_tasks() != frames * nv) {
    ws.replicated_placement = Placement(frames * nv);
  }
  for (int f = 0; f < frames; ++f) {
    for (int v = 0; v < nv; ++v) {
      ws.replicated_placement.set(f * nv + v, p.device_of(v));
    }
  }

  const TiledLatencyModel tiled(lat, g);
  detail::StreamPlan plan;
  plan.base_tasks = nv;
  plan.entries = &ws.entries;
  plan.arrivals = &out.frame_arrival;
  detail::simulate_core(ws.replicated, n, ws.replicated_placement, tiled, ws.sim,
                        out.schedule, opt.sim, nullptr, &plan, nullptr,
                        "simulate_streaming");

  out.frames = frames;
  out.frame_finish.assign(frames, 0.0);
  out.frame_latency.assign(frames, 0.0);
  for (int f = 0; f < frames; ++f) {
    double fin = out.frame_arrival[f];
    for (int v = 0; v < nv; ++v) {
      fin = std::max(fin, out.schedule.tasks[f * nv + v].finish);
    }
    out.frame_finish[f] = fin;
    out.frame_latency[f] = fin - out.frame_arrival[f];
  }
  out.makespan = out.schedule.makespan;
  if (frames > 1) {
    const double span = out.frame_finish[frames - 1] - out.frame_finish[0];
    out.throughput = span > 0.0 ? frames / span
                                : std::numeric_limits<double>::infinity();
  } else {
    out.throughput = out.frame_latency[0] > 0.0
                         ? 1.0 / out.frame_latency[0]
                         : std::numeric_limits<double>::infinity();
  }
  ws.sorted_latency.assign(out.frame_latency.begin(), out.frame_latency.end());
  std::sort(ws.sorted_latency.begin(), ws.sorted_latency.end());
  out.p50_latency = nearest_rank_of_sorted(ws.sorted_latency, 0.50);
  out.p99_latency = nearest_rank_of_sorted(ws.sorted_latency, 0.99);
}

StreamResult simulate_streaming(const TaskGraph& g, const DeviceNetwork& n,
                                const Placement& p, const LatencyModel& lat,
                                const StreamOptions& opt) {
  StreamWorkspace ws;
  StreamResult out;
  simulate_streaming_into(g, n, p, lat, ws, out, opt);
  return out;
}

double nearest_rank_percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return nearest_rank_of_sorted(xs, q);
}

}  // namespace giph
