#include "sim/metrics.hpp"

#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

namespace giph {
namespace {

double min_compute_cost(const TaskGraph& g, const DeviceNetwork& n,
                        const LatencyModel& lat, int v) {
  double best = std::numeric_limits<double>::infinity();
  for (int d : feasible_devices(g, n, v)) {
    best = std::min(best, lat.compute_time(g, n, v, d));
  }
  if (!std::isfinite(best)) {
    throw std::runtime_error("slr_denominator: task has no feasible device");
  }
  return best;
}

}  // namespace

double slr_denominator(const TaskGraph& g, const DeviceNetwork& n, const LatencyModel& lat) {
  const auto cp = g.critical_path_nodes(
      [&](int v) { return min_compute_cost(g, n, lat, v); });
  double denom = 0.0;
  for (int v : cp) denom += min_compute_cost(g, n, lat, v);
  return denom;
}

double slr(double makespan_value, double denominator) {
  if (denominator <= 0.0) {
    throw std::invalid_argument("slr: denominator must be positive");
  }
  return makespan_value / denominator;
}

double total_cost(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                  const LatencyModel& lat) {
  double cost = 0.0;
  for (int v = 0; v < g.num_tasks(); ++v) {
    cost += lat.compute_time(g, n, v, p.device_of(v));
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    cost += lat.comm_time(g, n, e, p.device_of(g.edge(e).src), p.device_of(g.edge(e).dst));
  }
  return cost;
}

double evaluate_objective(const ScheduleObjective& obj, const TaskGraph& g,
                          const DeviceNetwork& n, const Placement& p,
                          const LatencyModel& lat) {
  return obj(g, n, p, simulate(g, n, p, lat));
}

ScheduleObjective makespan_objective(const LatencyModel&) {
  return [](const TaskGraph&, const DeviceNetwork&, const Placement&,
            const Schedule& sched) { return sched.makespan; };
}

ScheduleObjective noisy_makespan_objective(const LatencyModel& lat, double sigma,
                                           std::mt19937_64& rng) {
  // Noise must be re-sampled per evaluation, so this objective keeps its own
  // simulation; the workspace amortizes its allocations across calls. The
  // objective is copyable, hence the shared workspace (single-threaded use,
  // like the captured rng).
  auto ws = std::make_shared<SimWorkspace>();
  auto noisy = std::make_shared<Schedule>();
  return [&lat, sigma, &rng, ws, noisy](const TaskGraph& g, const DeviceNetwork& n,
                                        const Placement& p, const Schedule&) {
    simulate_into(g, n, p, lat, *ws, *noisy, SimOptions{sigma, &rng});
    return noisy->makespan;
  };
}

ScheduleObjective streaming_p99_objective(const LatencyModel& lat,
                                          StreamOptions stream) {
  // Streaming metrics need their own iterated-graph simulation: the one-shot
  // schedule the environment hands over says nothing about cross-frame
  // pipelining. The workspace caches the replicated graph across calls.
  auto ws = std::make_shared<StreamWorkspace>();
  auto res = std::make_shared<StreamResult>();
  return [&lat, stream = std::move(stream), ws, res](
             const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
             const Schedule&) {
    simulate_streaming_into(g, n, p, lat, *ws, *res, stream);
    return res->p99_latency;
  };
}

ScheduleObjective streaming_throughput_objective(const LatencyModel& lat,
                                                 StreamOptions stream) {
  auto ws = std::make_shared<StreamWorkspace>();
  auto res = std::make_shared<StreamResult>();
  return [&lat, stream = std::move(stream), ws, res](
             const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
             const Schedule&) {
    simulate_streaming_into(g, n, p, lat, *ws, *res, stream);
    // Minimized: the mean inter-frame completion period. 1 / inf == 0.0 for
    // the degenerate zero-span case, which is indeed unbeatable.
    return 1.0 / res->throughput;
  };
}

ScheduleObjective total_cost_objective(const LatencyModel& lat) {
  return [&lat](const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                const Schedule&) { return total_cost(g, n, p, lat); };
}

}  // namespace giph
