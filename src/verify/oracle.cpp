#include "verify/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "verify/replicated_instance.hpp"

namespace giph {
namespace {

// One pending event in the oracle's flat event list. `order` is the creation
// index; (time, order) totally orders events, so a linear scan for the
// minimum reproduces exactly the pop sequence any correct priority queue
// would produce.
struct OracleEvent {
  double time = 0.0;
  long order = 0;
  int kind = 0;  // task completion, edge arrival, breakpoint, arrival, fault
  int id = -1;   // task id, edge id, breakpoint, frame, or incident index
};

constexpr int kTaskEvent = 0;
constexpr int kTransferEvent = 1;
constexpr int kBreakpointEvent = 2;
constexpr int kArrivalEvent = 3;
constexpr int kFaultEvent = 4;

double draw(double expected, const SimOptions& opt) {
  if (opt.noise <= 0.0) return expected;
  std::uniform_real_distribution<double> u(expected * (1.0 - opt.noise),
                                           expected * (1.0 + opt.noise));
  return u(*opt.rng);
}

// First-principles feasibility: every task sits on an in-range device that is
// either its pinned device or supports its hardware-requirement mask.
bool placement_feasible(const TaskGraph& g, const DeviceNetwork& n, const Placement& p) {
  if (p.num_tasks() != g.num_tasks()) return false;
  for (int v = 0; v < g.num_tasks(); ++v) {
    const int d = p.device_of(v);
    if (d < 0 || d >= n.num_devices()) return false;
    const Task& t = g.task(v);
    if (t.pinned >= 0) {
      if (d != t.pinned) return false;
    } else if ((t.requires_hw & n.device(d).supports_hw) != t.requires_hw) {
      return false;
    }
  }
  return true;
}

// Own acyclicity check (Kahn's algorithm on a scratch in-degree array), so the
// oracle does not depend on TaskGraph's cached topological order.
bool acyclic(const TaskGraph& g) {
  const int nv = g.num_tasks();
  std::vector<int> indeg(nv, 0);
  for (const DataLink& e : g.edges()) ++indeg[e.dst];
  std::vector<int> frontier;
  for (int v = 0; v < nv; ++v) {
    if (indeg[v] == 0) frontier.push_back(v);
  }
  int visited = 0;
  while (!frontier.empty()) {
    const int v = frontier.back();
    frontier.pop_back();
    ++visited;
    for (int e : g.out_edges(v)) {
      if (--indeg[g.edge(e).dst] == 0) frontier.push_back(g.edge(e).dst);
    }
  }
  return visited == nv;
}

// Fault entries order after every simulation entry at the same instant (an
// incident interrupts; work finishing exactly then has finished).
constexpr long kFaultOrderBase = std::numeric_limits<long>::max() / 2;

// A crash, leave, or straggler start/end of a fault plan, on the timeline.
struct OracleFault {
  double time = 0.0;
  FaultKind kind = FaultKind::kDeviceCrash;
  bool revert = false;  // a transient straggler ending
  int device = -1;
  double factor = 1.0;
};

// The plan's device incidents on base devices, in plan order (a transient
// straggler's end right after its start), then stably ordered by time.
// Joined devices cannot host a fixed placement's tasks, so their events are
// inert.
std::vector<OracleFault> device_incidents(const FaultPlan& plan, int num_devices) {
  std::vector<OracleFault> incidents;
  for (const FaultEvent& e : plan.events) {
    const bool device_event = e.kind == FaultKind::kDeviceCrash ||
                              e.kind == FaultKind::kDeviceLeave ||
                              e.kind == FaultKind::kSlowdown;
    if (!device_event || e.device >= num_devices) continue;
    incidents.push_back(OracleFault{e.time, e.kind, false, e.device, e.factor});
    if (e.kind == FaultKind::kSlowdown && std::isfinite(e.until)) {
      incidents.push_back(OracleFault{e.until, e.kind, true, e.device, e.factor});
    }
  }
  std::stable_sort(
      incidents.begin(), incidents.end(),
      [](const OracleFault& a, const OracleFault& b) { return a.time < b.time; });
  return incidents;
}

// The plan's link degrades, re-expressed as piecewise-constant link
// conditions: per degraded base link (in order of its first degrade in the
// plan) a condition change at each distinct instant a degrade on it starts
// or ends. The condition in force is derived from scratch from the degrades
// active at that instant, taken in plan order: the bandwidth shrinks by the
// product of their factors, the startup delay grows by the sum of their
// delays.
NetworkTrace degrade_conditions(const FaultPlan& plan, int num_devices) {
  NetworkTrace conditions;
  for (const FaultEvent& e : plan.events) {
    if (e.kind != FaultKind::kLinkDegrade) continue;
    if (e.link_src >= num_devices || e.link_dst >= num_devices) continue;
    bool seen = false;
    for (const LinkSchedule& ls : conditions.links) {
      seen = seen || (ls.src == e.link_src && ls.dst == e.link_dst);
    }
    if (!seen) conditions.links.push_back(LinkSchedule{e.link_src, e.link_dst, {}});
  }
  for (LinkSchedule& ls : conditions.links) {
    auto on_link = [&](const FaultEvent& e) {
      return e.kind == FaultKind::kLinkDegrade && e.link_src == ls.src &&
             e.link_dst == ls.dst;
    };
    std::vector<double> instants;
    for (const FaultEvent& e : plan.events) {
      if (!on_link(e)) continue;
      for (const double t : {e.time, e.until}) {
        if (std::isfinite(t) &&
            std::find(instants.begin(), instants.end(), t) == instants.end()) {
          instants.push_back(t);
        }
      }
    }
    std::sort(instants.begin(), instants.end());
    for (const double t : instants) {
      double product = 1.0;
      double extra_delay = 0.0;
      for (const FaultEvent& e : plan.events) {
        if (on_link(e) && e.time <= t && t < e.until) {
          product *= e.factor;
          extra_delay += e.delay_add;
        }
      }
      ls.segments.push_back(TraceSegment{t, 1.0 / product, extra_delay, 0.0});
    }
  }
  return conditions;
}

// The oracle's own nearest-rank percentile, written from the documented
// convention (the ceil(q * n)-th smallest observation, no interpolation).
double oracle_percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= xs.size()) idx = xs.size() - 1;
  return xs[idx];
}

// One naive replay of a placement, optionally under a fault plan. Without a
// plan every task must complete; with one, tasks that cannot are stranded.
// With frame `arrivals`, (g, p, lat) is the frame-replicated instance of a
// streaming run: frame f is tasks f * V .. f * V + V - 1, and its entry tasks
// become runnable at arrivals[f] instead of t = 0.
FaultSimResult oracle_replay(const TaskGraph& g, const DeviceNetwork& n,
                             const Placement& p, const LatencyModel& lat,
                             const SimOptions& opt, const FaultPlan* plan,
                             const std::vector<double>* arrivals, const char* caller) {
  const std::string who = caller;
  validate_sim_options(opt, caller);
  const bool caller_trace = opt.trace != nullptr && !opt.trace->empty();
  if (plan != nullptr) {
    if (caller_trace) {
      throw std::invalid_argument(who + ": a NetworkTrace cannot be combined with a "
                                        "fault plan");
    }
    validate_fault_plan(*plan, n);
  }
  if (!placement_feasible(g, n, p)) {
    throw std::invalid_argument(who + ": infeasible placement");
  }
  if (!acyclic(g)) {
    throw std::logic_error(who + ": cyclic task graph");
  }

  const int nv = g.num_tasks();
  const int ne = g.num_edges();
  const int nd = n.num_devices();

  // Dynamic-network configuration, interpreted independently of the
  // production simulator: only the NetworkTrace / SharedLinkMap *data* (and
  // their validators) are shared. An empty trace is no trace at all. Under a
  // fault plan the link conditions come from its degrades.
  const NetworkTrace degraded =
      plan != nullptr ? degrade_conditions(*plan, nd) : NetworkTrace{};
  const NetworkTrace* trace = caller_trace ? opt.trace
                              : degraded.empty() ? nullptr
                                                 : &degraded;
  if (trace != nullptr) validate_network_trace(*trace, n, caller);
  const SharedLinkMap* shared = opt.shared_links;
  if (shared != nullptr) validate_shared_link_map(*shared, nd, caller);

  FaultSimResult result;
  Schedule& out = result.schedule;
  out.tasks.assign(nv, TaskTiming{-1.0, -1.0});
  out.edge_start.assign(ne, -1.0);
  out.edge_finish.assign(ne, -1.0);
  out.makespan = 0.0;
  if (nv == 0) return result;

  std::vector<OracleEvent> pending;
  long next_order = 0;
  std::vector<std::vector<int>> waiting(nd);  // FIFO of runnable-but-queued tasks
  std::vector<double> link_busy_until(shared != nullptr ? shared->num_links : 0, 0.0);

  // Per traced link: the segment currently in force (identity before the
  // first segment) and its wire-time factor. Breakpoint entries are created
  // before anything else, so a breakpoint sorts before same-time sim events.
  // A segment at t = 0 seeds its link's starting state instead, where the
  // simulator pushes a breakpoint: the two mechanisms must agree.
  const int ntl = trace != nullptr ? static_cast<int>(trace->links.size()) : 0;
  std::vector<TraceSegment> link_state(ntl);
  std::vector<double> link_factor(ntl, 1.0);
  std::vector<std::pair<int, int>> breakpoints;  // (trace link, segment)
  if (trace != nullptr) {
    for (int li = 0; li < ntl; ++li) {
      const LinkSchedule& ls = trace->links[li];
      for (int si = 0; si < static_cast<int>(ls.segments.size()); ++si) {
        if (ls.segments[si].time <= 0.0) {
          link_state[li] = ls.segments[si];
          link_factor[li] = (1.0 / ls.segments[si].bandwidth_factor) /
                            (1.0 - ls.segments[si].drop_prob);
        } else {
          pending.push_back(OracleEvent{ls.segments[si].time, next_order++,
                                        kBreakpointEvent,
                                        static_cast<int>(breakpoints.size())});
          breakpoints.emplace_back(li, si);
        }
      }
    }
  }

  // Device incidents: whether each device is still up, and the factor its
  // task durations are stretched by (1 without a straggler).
  const std::vector<OracleFault> incidents =
      plan != nullptr ? device_incidents(*plan, nd) : std::vector<OracleFault>{};
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    pending.push_back(OracleEvent{incidents[i].time,
                                  kFaultOrderBase + static_cast<long>(i), kFaultEvent,
                                  static_cast<int>(i)});
  }
  std::vector<char> device_up(nd, 1);
  std::vector<double> stretch(nd, 1.0);

  // The traced-link index of a device pair, found by scanning the trace
  // (links with no segments are plain links).
  auto traced_link_of = [&](int src, int dst) {
    if (trace == nullptr) return -1;
    for (int li = 0; li < ntl; ++li) {
      if (trace->links[li].src == src && trace->links[li].dst == dst &&
          !trace->links[li].segments.empty()) {
        return li;
      }
    }
    return -1;
  };

  // Per edge: when its wire (bandwidth-proportional) portion starts and the
  // factor its current finish time was computed with. An edge is in flight
  // exactly when it has started but not finished.
  std::vector<double> wire_begin(ne, 0.0);
  std::vector<double> wire_factor_of(ne, 1.0);

  // Occupancy is re-derived on demand instead of kept in a counter: a device
  // is running exactly its placed tasks that have started but not finished.
  auto is_running = [&](int v) {
    return out.tasks[v].start >= 0.0 && out.tasks[v].finish < 0.0;
  };
  auto tasks_running_on = [&](int d) {
    int count = 0;
    for (int v = 0; v < nv; ++v) {
      if (p.device_of(v) == d && is_running(v)) ++count;
    }
    return count;
  };

  // The pending completion entry of task v (it has exactly one while it runs).
  auto completion_slot = [&](int v) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].kind == kTaskEvent && pending[i].id == v) return i;
    }
    throw std::logic_error(who + ": running task has no pending completion");
  };

  auto begin_execution = [&](int v, double t) {
    const int d = p.device_of(v);
    out.tasks[v].start = t;
    const double w = draw(lat.compute_time(g, n, v, d), opt);
    pending.push_back(OracleEvent{t + w * stretch[d], next_order++, kTaskEvent, v});
  };

  // A task whose inputs have all arrived either begins immediately (free core,
  // nobody queued ahead) or joins its device's FIFO. On a device that is no
  // longer up it never runs.
  auto on_runnable = [&](int v, double t) {
    const int d = p.device_of(v);
    if (!device_up[d]) return;
    if (waiting[d].empty() && tasks_running_on(d) < n.device(d).cores) {
      begin_execution(v, t);
    } else {
      waiting[d].push_back(v);
    }
  };

  // Each frame's entry tasks become runnable in task-id order: frame 0's at
  // t = 0, each later frame's through an arrival entry created right after
  // the breakpoint entries, so an arrival acts before same-time sim events.
  // A one-shot run is a single frame.
  const int frames = arrivals != nullptr ? static_cast<int>(arrivals->size()) : 1;
  const int frame_tasks = nv / frames;
  auto release_frame = [&](int f, double t) {
    for (int v = f * frame_tasks; v < (f + 1) * frame_tasks; ++v) {
      if (g.in_degree(v) == 0) on_runnable(v, t);
    }
  };
  for (int f = 1; f < frames; ++f) {
    pending.push_back(OracleEvent{(*arrivals)[f], next_order++, kArrivalEvent, f});
  }
  release_frame(0, 0.0);

  while (!pending.empty()) {
    // Earliest (time, creation order) event, found by plain linear scan.
    std::size_t at = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      if (pending[i].time < pending[at].time ||
          (pending[i].time == pending[at].time && pending[i].order < pending[at].order)) {
        at = i;
      }
    }
    const OracleEvent ev = pending[at];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(at));

    if (ev.kind == kTaskEvent) {
      const int v = ev.id;
      out.tasks[v].finish = ev.time;
      const int d = p.device_of(v);
      // Outputs go out to every child's device, in out-edge order:
      // contention-free and concurrent in the paper's model, and behind every
      // busy link of the route (a NIC is one more link) under contention.
      for (int e : g.out_edges(v)) {
        const int dst_dev = p.device_of(g.edge(e).dst);
        const double c = draw(lat.comm_time(g, n, e, d, dst_dev), opt);
        double start = ev.time;
        if (shared != nullptr && dst_dev != d) {
          for (const int li : shared->links_on(d, dst_dev)) {
            start = std::max(start, link_busy_until[li]);
          }
        }
        double dur = c;
        const int tl = traced_link_of(d, dst_dev);
        if (tl >= 0) {
          // Startup (delay) portion of the realized time keeps the expected
          // startup fraction; only the wire remainder scales with the link
          // conditions in force at dispatch.
          const double ce = lat.comm_time(g, n, e, d, dst_dev);
          const double de = lat.comm_startup(g, n, e, d, dst_dev);
          const double dr = ce > 0.0 ? de * (c / ce) : 0.0;
          const double startup = dr + link_state[tl].delay_add;
          dur = startup + (c - dr) * link_factor[tl];
          wire_begin[e] = start + startup;
          wire_factor_of[e] = link_factor[tl];
        } else if (trace != nullptr) {
          wire_begin[e] = start;
          wire_factor_of[e] = 1.0;
        }
        if (shared != nullptr && dst_dev != d) {
          for (const int li : shared->links_on(d, dst_dev)) {
            link_busy_until[li] = start + dur;
          }
        }
        out.edge_start[e] = start;
        pending.push_back(OracleEvent{start + dur, next_order++, kTransferEvent, e});
      }
      // The freed core serves the next queued task, if any.
      if (!waiting[d].empty() && tasks_running_on(d) < n.device(d).cores) {
        const int next = waiting[d].front();
        waiting[d].erase(waiting[d].begin());
        begin_execution(next, ev.time);
      }
    } else if (ev.kind == kTransferEvent) {
      const int e = ev.id;
      out.edge_finish[e] = ev.time;
      const int child = g.edge(e).dst;
      // Re-scan the child's inputs from scratch: it becomes runnable exactly
      // when its last input arrives.
      bool all_arrived = true;
      for (int in_e : g.in_edges(child)) {
        if (out.edge_finish[in_e] < 0.0) {
          all_arrived = false;
          break;
        }
      }
      if (all_arrived) on_runnable(child, ev.time);
    } else if (ev.kind == kArrivalEvent) {
      release_frame(ev.id, ev.time);
    } else if (ev.kind == kFaultEvent) {
      const OracleFault& f = incidents[static_cast<std::size_t>(ev.id)];
      const int d = f.device;
      if (f.kind == FaultKind::kSlowdown) {
        // A straggler starts or ends: every task running on d finishes its
        // remaining work at the new stretch, in ascending task-id order.
        const double before = stretch[d];
        stretch[d] = f.revert ? before / f.factor : before * f.factor;
        for (int v = 0; v < nv; ++v) {
          if (p.device_of(v) != d || !is_running(v)) continue;
          const std::size_t slot = completion_slot(v);
          const double finish =
              ev.time + (pending[slot].time - ev.time) * (stretch[d] / before);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(slot));
          pending.push_back(OracleEvent{finish, next_order++, kTaskEvent, v});
        }
      } else if (device_up[d]) {
        // The device goes down: its queue is never served. A crash also
        // kills what runs there (its completion is withdrawn and its start
        // forgotten); a graceful leave lets it finish and send its outputs.
        device_up[d] = 0;
        result.failed_devices.push_back(d);
        waiting[d].clear();
        if (f.kind == FaultKind::kDeviceCrash) {
          for (int v = 0; v < nv; ++v) {
            if (p.device_of(v) != d || !is_running(v)) continue;
            pending.erase(pending.begin() +
                          static_cast<std::ptrdiff_t>(completion_slot(v)));
            out.tasks[v].start = -1.0;
          }
        }
      }
    } else {  // kBreakpointEvent
      const int li = breakpoints[ev.id].first;
      const TraceSegment& seg = trace->links[li].segments[breakpoints[ev.id].second];
      link_state[li] = seg;
      const double f_new = (1.0 / seg.bandwidth_factor) / (1.0 - seg.drop_prob);
      link_factor[li] = f_new;
      const int src = trace->links[li].src;
      const int dst = trace->links[li].dst;
      // Rescale the remaining wire time of every transfer in flight on this
      // link, in ascending edge-id order: remove its pending arrival and
      // append the rescaled one (matching the simulator's fresh event).
      for (int e = 0; e < ne; ++e) {
        if (out.edge_start[e] < 0.0 || out.edge_finish[e] >= 0.0) continue;
        if (p.device_of(g.edge(e).src) != src || p.device_of(g.edge(e).dst) != dst) {
          continue;
        }
        if (wire_factor_of[e] == f_new) continue;
        std::size_t slot = pending.size();
        for (std::size_t i = 0; i < pending.size(); ++i) {
          if (pending[i].kind == kTransferEvent && pending[i].id == e) {
            slot = i;
            break;
          }
        }
        if (slot == pending.size()) {
          throw std::logic_error(who + ": in-flight edge has no pending event");
        }
        const double anchor = std::max(ev.time, wire_begin[e]);
        const double remaining = pending[slot].time - anchor;
        if (remaining <= 0.0) {
          // Wire already done (zero wire time, or finishing this instant):
          // keep the pending arrival as-is.
          wire_factor_of[e] = f_new;
          continue;
        }
        const double finish = anchor + remaining * (f_new / wire_factor_of[e]);
        wire_factor_of[e] = f_new;
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(slot));
        pending.push_back(OracleEvent{finish, next_order++, kTransferEvent, e});
      }
    }
  }

  for (int v = 0; v < nv; ++v) {
    if (out.tasks[v].finish >= 0.0) continue;
    if (plan == nullptr) throw std::logic_error(who + ": not all tasks completed");
    result.stranded.push_back(v);
  }
  std::sort(result.failed_devices.begin(), result.failed_devices.end());

  // The makespan spans the tasks that completed (0 when none did).
  double first_start = std::numeric_limits<double>::infinity();
  double last_finish = -std::numeric_limits<double>::infinity();
  for (const TaskTiming& t : out.tasks) {
    if (t.finish < 0.0) continue;
    first_start = std::min(first_start, t.start);
    last_finish = std::max(last_finish, t.finish);
  }
  out.makespan = last_finish >= first_start ? last_finish - first_start : 0.0;
  return result;
}

}  // namespace

Schedule oracle_simulate(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                         const LatencyModel& lat, const SimOptions& opt) {
  return oracle_replay(g, n, p, lat, opt, nullptr, nullptr, "oracle_simulate").schedule;
}

FaultSimResult oracle_simulate_with_faults(const TaskGraph& g, const DeviceNetwork& n,
                                           const Placement& p, const LatencyModel& lat,
                                           const FaultPlan& plan, const SimOptions& opt) {
  return oracle_replay(g, n, p, lat, opt, &plan, nullptr, "oracle_simulate_with_faults");
}

StreamResult oracle_simulate_streaming(const TaskGraph& g, const DeviceNetwork& n,
                                       const Placement& p, const LatencyModel& lat,
                                       const StreamOptions& opt) {
  validate_stream_options(opt, "oracle_simulate_streaming");
  const int frames = opt.frames;
  const int nv = g.num_tasks();

  StreamResult r;
  // Inter-arrival gaps are drawn before any simulation draw, in frame order.
  r.frame_arrival.assign(frames, 0.0);
  for (int f = 1; f < frames; ++f) {
    double gap = opt.interval;
    if (opt.arrival_jitter > 0.0) {
      std::uniform_real_distribution<double> u(
          opt.interval * (1.0 - opt.arrival_jitter),
          opt.interval * (1.0 + opt.arrival_jitter));
      gap = u(*opt.sim.rng);
    }
    r.frame_arrival[f] = r.frame_arrival[f - 1] + gap;
  }

  TaskGraph rep;
  Placement rep_p;
  verify_detail::replicate_frames(g, p, frames, rep, rep_p);
  const verify_detail::ReplicatedLatencyModel rep_lat(lat, g);
  r.schedule = oracle_replay(rep, n, rep_p, rep_lat, opt.sim, nullptr, &r.frame_arrival,
                             "oracle_simulate_streaming")
                   .schedule;

  // Per-frame metrics, re-derived with the oracle's own arithmetic.
  r.frames = frames;
  r.frame_finish.assign(frames, 0.0);
  r.frame_latency.assign(frames, 0.0);
  for (int f = 0; f < frames; ++f) {
    double fin = r.frame_arrival[f];
    for (int v = 0; v < nv; ++v) {
      fin = std::max(fin, r.schedule.tasks[f * nv + v].finish);
    }
    r.frame_finish[f] = fin;
    r.frame_latency[f] = fin - r.frame_arrival[f];
  }
  r.makespan = r.schedule.makespan;
  if (frames > 1) {
    const double span = r.frame_finish[frames - 1] - r.frame_finish[0];
    r.throughput = span > 0.0 ? frames / span : std::numeric_limits<double>::infinity();
  } else {
    r.throughput = r.frame_latency[0] > 0.0 ? 1.0 / r.frame_latency[0]
                                            : std::numeric_limits<double>::infinity();
  }
  r.p50_latency = oracle_percentile(r.frame_latency, 0.50);
  r.p99_latency = oracle_percentile(r.frame_latency, 0.99);
  return r;
}

}  // namespace giph
