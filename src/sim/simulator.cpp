#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/sim_engine.hpp"

namespace giph {
namespace {

std::atomic<std::uint64_t> g_full_simulation_count{0};
std::atomic<std::uint64_t> g_delta_simulation_count{0};
std::atomic<std::uint64_t> g_delta_fallback_count{0};

}  // namespace

void detail::bump_simulation_count() noexcept {
  g_full_simulation_count.fetch_add(1, std::memory_order_relaxed);
}

void detail::bump_delta_simulation_count() noexcept {
  g_delta_simulation_count.fetch_add(1, std::memory_order_relaxed);
}

void detail::bump_delta_fallback_count() noexcept {
  g_delta_fallback_count.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t simulation_count() noexcept {
  return full_simulation_count() + delta_simulation_count();
}

std::uint64_t full_simulation_count() noexcept {
  return g_full_simulation_count.load(std::memory_order_relaxed);
}

std::uint64_t delta_simulation_count() noexcept {
  return g_delta_simulation_count.load(std::memory_order_relaxed);
}

std::uint64_t delta_fallback_count() noexcept {
  return g_delta_fallback_count.load(std::memory_order_relaxed);
}

void validate_sim_options(const SimOptions& opt, const char* caller) {
  if (std::isnan(opt.noise)) {
    throw std::invalid_argument(std::string(caller) + ": noise must not be NaN");
  }
  if (opt.noise >= 1.0) {
    throw std::invalid_argument(std::string(caller) +
                                ": noise must be < 1 (a multiplicative draw from "
                                "[x(1-noise), x(1+noise)] could go negative)");
  }
  if (opt.noise > 0.0 && opt.rng == nullptr) {
    throw std::invalid_argument(std::string(caller) + ": noise > 0 requires an rng");
  }
}

void detail::simulate_core(const TaskGraph& g, const DeviceNetwork& n,
                           const Placement& p, const LatencyModel& lat,
                           SimWorkspace& ws, Schedule& out, const SimOptions& opt,
                           DeltaSimState* record, const StreamPlan* plan,
                           FaultContext* faults, const char* caller) {
  // Validate options first: noise without an engine would dereference null
  // inside the event loop, far from the caller's mistake.
  validate_sim_options(opt, caller);
  if (!is_feasible(g, n, p)) {
    throw std::invalid_argument(std::string(caller) + ": infeasible placement");
  }
  detail::bump_simulation_count();
  if (record != nullptr) record->valid = false;
  const int nv = g.num_tasks();
  const int ne = g.num_edges();
  const int nd = n.num_devices();

  // Dynamic-network configuration. Null / empty configurations collapse to
  // null pointers here so the static-network path below is the exact legacy
  // code path (bitwise-identical output, no extra buffers touched).
  const NetworkTrace* trace =
      (opt.trace != nullptr && !opt.trace->empty()) ? opt.trace : nullptr;
  if (trace != nullptr) validate_network_trace(*trace, n, caller);
  const SharedLinkMap* shared = opt.shared_links;
  if (shared != nullptr) validate_shared_link_map(*shared, nd, caller);

  out.tasks.assign(nv, TaskTiming{-1.0, -1.0});
  out.edge_start.assign(ne, -1.0);
  out.edge_finish.assign(ne, -1.0);
  out.makespan = 0.0;
  if (nv == 0) return;

  // All buffers are reset with assign()/resize()/clear(), which reuse
  // existing capacity.
  ws.heap.clear();
  ws.remaining_inputs.resize(nv);
  ws.ready.resize(nv);
  for (int v = 0; v < nv; ++v) {
    ws.remaining_inputs[v] = g.in_degree(v);
    ws.ready[v] = detail::no_inputs_yet(v);
  }
  ws.fifo.reset(nd, nv);
  ws.running.assign(nd, 0);  // occupied cores per device

  if (record != nullptr) {
    record->runnable_order.assign(nv, -1);
    record->task_event_seq.assign(nv, -1);
    record->edge_event_seq.assign(ne, -1);
  }

  // Dynamic-network state. Every segment is a breakpoint, pushed before any
  // sim event so they consume seq 0..B-1: a breakpoint takes effect *before*
  // same-time sim events (a transfer dispatched at the breakpoint instant
  // already sees the new conditions; one arriving at that instant is still
  // in flight). A segment at t = 0 therefore sets its link's starting state.
  std::vector<std::pair<int, int>> breakpoints;  // (trace link, segment)
  if (shared != nullptr) ws.link_free.assign(shared->num_links, 0.0);

  detail::SimEngine eng{g,      n,      p,            lat,    ws, out,  opt,
                        trace,  shared, &breakpoints, record, nd, plan, faults};

  if (trace != nullptr) {
    const int nl = static_cast<int>(trace->links.size());
    ws.trace_link.assign(static_cast<std::size_t>(nd) * nd, -1);
    ws.trace_cur.assign(nl, TraceSegment{});
    ws.trace_factor.assign(nl, 1.0);
    ws.edge_seq.assign(ne, -1);
    ws.edge_wire_begin.assign(ne, 0.0);
    ws.edge_wire_factor.assign(ne, 1.0);
    for (int li = 0; li < nl; ++li) {
      const LinkSchedule& ls = trace->links[li];
      if (ls.segments.empty()) continue;  // no conditions: stays a plain link
      ws.trace_link[static_cast<std::size_t>(ls.src) * nd + ls.dst] = li;
      for (int si = 0; si < static_cast<int>(ls.segments.size()); ++si) {
        eng.push_event(ls.segments[si].time, detail::kBreakpoint,
                       static_cast<int>(breakpoints.size()));
        breakpoints.emplace_back(li, si);
      }
    }
  }

  if (plan != nullptr) {
    // Streaming: frame arrivals are pushed after the trace breakpoints and
    // before any sim event, so an arrival at the instant a task finishes pops
    // first (lower seq). Frame 0 arrives at t = 0 and is released below like
    // a one-shot run's entry tasks; a 1-frame plan therefore pushes nothing
    // here and the run is bitwise identical to simulate_into().
    const std::vector<double>& arrivals = *plan->arrivals;
    for (int f = 1; f < static_cast<int>(arrivals.size()); ++f) {
      eng.push_event(arrivals[f], detail::kFrameArrival, f);
    }
    // Frame 0's entry copies are exactly the base entries (ids < base_tasks);
    // later frames' copies wait for their kFrameArrival event.
    for (const int v : *plan->entries) eng.make_runnable(v, 0.0);
  } else {
    // Entry tasks become runnable at t = 0 in task-id order.
    for (int v = 0; v < nv; ++v) {
      if (ws.remaining_inputs[v] == 0) eng.make_runnable(v, 0.0);
    }
  }
  // topological_order() throws on cyclic input; check up-front so a cyclic
  // graph cannot hang the event loop.
  (void)g.topological_order();

  if (faults != nullptr) eng.push_fault_actions();

  eng.run();
  eng.finalize(caller);
}

void simulate_into(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                   const LatencyModel& lat, SimWorkspace& ws, Schedule& out,
                   const SimOptions& opt) {
  detail::simulate_core(g, n, p, lat, ws, out, opt, nullptr, nullptr, nullptr,
                        "simulate");
}

void simulate_into(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                   const LatencyModel& lat, SimWorkspace& ws, Schedule& out,
                   DeltaSimState& record) {
  detail::simulate_core(g, n, p, lat, ws, out, SimOptions{}, &record, nullptr,
                        nullptr, "simulate");
}

Schedule simulate(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                  const LatencyModel& lat, const SimOptions& opt) {
  SimWorkspace ws;
  Schedule sched;
  simulate_into(g, n, p, lat, ws, sched, opt);
  return sched;
}

double makespan(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                const LatencyModel& lat) {
  return simulate(g, n, p, lat).makespan;
}

double earliest_start_on(const Schedule& sched, const TaskGraph& g,
                         const DeviceNetwork& n, const Placement& p,
                         const LatencyModel& lat, int v, int d) {
  double est = 0.0;
  for (int e : g.in_edges(v)) {
    const int parent = g.edge(e).src;
    const int pd = p.device_of(parent);
    est = std::max(est, sched.tasks[parent].finish + lat.comm_time(g, n, e, pd, d));
  }
  return est;
}

double earliest_start_on_queued(const Schedule& sched, const TaskGraph& g,
                                const DeviceNetwork& n, const Placement& p,
                                const LatencyModel& lat, int v, int d) {
  double est = earliest_start_on(sched, g, n, p, lat, v, d);
  // Tasks currently scheduled to start before v would occupy device d ahead
  // of it; tasks starting later (v's descendants and unrelated late work)
  // would queue behind v instead.
  for (int u = 0; u < g.num_tasks(); ++u) {
    if (u == v || p.device_of(u) != d) continue;
    if (sched.tasks[u].start >= sched.tasks[v].start) continue;
    est = std::max(est, sched.tasks[u].finish);
  }
  return est;
}

}  // namespace giph
