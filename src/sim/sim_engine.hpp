#pragma once

// Shared discrete-event core behind simulate_into(), simulate_delta(),
// simulate_streaming() and simulate_with_faults(). Every entry point
// reconstructs a (possibly mid-run) simulator state into the SimWorkspace,
// then drives this engine; having exactly one copy of the event semantics is
// what makes the incremental path bitwise-identical to the full one by
// construction. Internal header: not part of the public API.

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace giph::detail {

constexpr int kTaskDone = 0;
constexpr int kInputsReady = 1;
constexpr int kBreakpoint = 2;
constexpr int kFrameArrival = 3;
constexpr int kFault = 4;

/// Fault actions break time ties after every simulation event: their seqs
/// start here, above any seq a run can reach, so a task finishing exactly at
/// crash time counts as completed.
constexpr long kFaultSeqBase = std::numeric_limits<long>::max() / 2;

/// Streaming context for simulate_core(): the graph being simulated is F
/// frame-copies of a base graph (virtual task id = f * base_tasks + v, no
/// cross-frame edges), and frame f's entry tasks become runnable at
/// arrivals[f] instead of t = 0. Frame 0 always arrives at t = 0 and is
/// released exactly like simulate()'s entry tasks, so a 1-frame plan adds no
/// events and reproduces the one-shot run bitwise.
struct StreamPlan {
  int base_tasks = 0;  ///< V of the base (one-frame) graph
  /// Entry task ids of the base graph, ascending; frame f releases the copies
  /// f * base_tasks + v in this order.
  const std::vector<int>* entries = nullptr;
  /// Per-frame arrival times, non-decreasing, arrivals[0] == 0. One
  /// kFrameArrival event per frame >= 1 is pushed at init (after trace
  /// breakpoints), so an arrival coinciding with a sim event pops first.
  const std::vector<double>* arrivals = nullptr;
};

/// Fault context for simulate_core(): the device-level actions of a fault
/// plan and the state they drive. Link degrades are not here; they reach the
/// engine as NetworkTrace segments. A run without faults passes none, so
/// none of this is touched.
struct FaultContext {
  enum Type { kCrash, kLeave, kSlowApply, kSlowRevert };
  struct Action {
    double time = 0.0;
    Type type = kCrash;
    int device = -1;
    double factor = 1.0;  ///< slowdown actions only
  };
  /// Stably sorted by time; action i pops with seq kFaultSeqBase + i.
  std::vector<Action> actions;
  std::vector<char> up;         ///< per device: 0 once crashed or departed
  std::vector<double> scale;    ///< per device: compute-time multiplier
  std::vector<int> task_version;       ///< per task: stale when != the event's
  std::vector<double> task_finish_at;  ///< per task: current predicted finish
  std::vector<int> failed_devices;     ///< in the order they went down
};

/// The one event order: true when `a` pops after `b`, by time, then by seq.
/// Live events have distinct keys (a transfer's seq is its own, and a task's
/// inputs-ready event borrows the seq of one of its inputs), so the order is
/// total and any exact priority queue pops the same sequence. Branch-free:
/// the heap's comparisons have no pattern a predictor can learn.
inline bool pops_after(const SimEvent& a, const SimEvent& b) {
  return (a.time > b.time) | ((a.time == b.time) & (a.seq > b.seq));
}

/// Raises a task's inputs-ready key to an input arriving at (time, seq) if
/// that input pops later: the key is the latest of the task's sent inputs.
inline void note_input(SimEvent& ready, double time, long seq) {
  if (pops_after(SimEvent{time, seq, kInputsReady, 0, 0}, ready)) {
    ready.time = time;
    ready.seq = seq;
  }
}

/// A task's inputs-ready event before any input is sent: every input's key
/// pops after it.
inline SimEvent no_inputs_yet(int v) { return SimEvent{-1.0, -1, kInputsReady, v, 0}; }

inline double realize(double expected, const SimOptions& opt) {
  if (opt.noise <= 0.0) return expected;
  std::uniform_real_distribution<double> d(expected * (1.0 - opt.noise),
                                           expected * (1.0 + opt.noise));
  return d(*opt.rng);
}

/// The event loop of Appendix B.5 over externally prepared state. The caller
/// owns initialization: workspace buffers sized and seeded, `out` prefilled,
/// `seq` / `completed` / `runnable_rank` positioned, and the heap holding the
/// pending events (a fresh heap plus entry tasks for a full run; the events
/// crossing the dirty-time boundary for a delta replay).
struct SimEngine {
  const TaskGraph& g;
  const DeviceNetwork& n;
  const Placement& p;
  const LatencyModel& lat;
  SimWorkspace& ws;
  Schedule& out;
  const SimOptions& opt;
  const NetworkTrace* trace;    ///< collapsed: nullptr when absent or empty
  const SharedLinkMap* shared;  ///< nullptr when absent
  /// (trace link, segment) per kBreakpoint event id. Traced full runs only;
  /// a delta replay runs the static model and passes nullptr.
  const std::vector<std::pair<int, int>>* breakpoints;
  /// Bookkeeping for simulate_delta(): event seqs and runnable ranks recorded
  /// as the run unfolds. Non-null only on static-model runs (the recording
  /// simulate_into() overload and delta replays); null otherwise.
  DeltaSimState* rec;
  int nd = 0;
  /// Streaming runs only (simulate_core with a plan); null otherwise, which
  /// keeps the 12-value aggregate initializers of the one-shot paths valid.
  const StreamPlan* stream = nullptr;
  /// Fault runs only (simulate_with_faults); null otherwise.
  FaultContext* faults = nullptr;

  long seq = 0;
  int completed = 0;
  long runnable_rank = 0;

  /// Adds `ev` to the binary min-heap ws.heap: it sifts up from a new leaf.
  void push(const SimEvent& ev) {
    auto& h = ws.heap;
    std::size_t i = h.size();
    h.push_back(ev);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!pops_after(h[parent], ev)) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = ev;
  }

  /// Removes and returns the earliest event. The hole at the root descends to
  /// a leaf along the earlier child (one branch-free compare per level), then
  /// the last element fills it and sifts up, which rarely climbs far.
  SimEvent pop() {
    auto& h = ws.heap;
    const SimEvent top = h.front();
    const SimEvent last = h.back();
    h.pop_back();
    const std::size_t n = h.size();
    if (n == 0) return top;
    std::size_t hole = 0;
    std::size_t child = 1;
    for (; child + 1 < n; child = 2 * hole + 1) {
      child += static_cast<std::size_t>(pops_after(h[child], h[child + 1]));
      h[hole] = h[child];
      hole = child;
    }
    if (child < n) {  // a lone last child
      h[hole] = h[child];
      hole = child;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!pops_after(h[parent], last)) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = last;
    return top;
  }

  void push_event(double time, int kind, int id, int version = 0) {
    push(SimEvent{time, seq++, kind, id, version});
  }

  /// Queues every fault action; action i pops with seq kFaultSeqBase + i.
  void push_fault_actions() {
    for (std::size_t i = 0; i < faults->actions.size(); ++i) {
      push(SimEvent{faults->actions[i].time, kFaultSeqBase + static_cast<long>(i),
                    kFault, static_cast<int>(i), 0});
    }
  }

  /// One input of task v is sent and arrives at key (time, seq). Its
  /// inputs-ready event keeps the latest key and is queued once the last
  /// input is sent: it pops exactly where the latest input's own arrival
  /// event would, so pop order stays that of one event per transfer.
  void send_input(int v, double time, long seq_of_input) {
    SimEvent& r = ws.ready[v];
    note_input(r, time, seq_of_input);
    if (--ws.remaining_inputs[v] == 0) push(r);
  }

  /// A breakpoint re-timed one of v's sent inputs: rebuilds v's key from its
  /// sent inputs and, when all are sent, queues the event again under a new
  /// version (the queued one goes stale).
  void rekey_inputs_ready(int v) {
    SimEvent& r = ws.ready[v];
    r.time = -1.0;
    r.seq = -1;
    for (int e : g.in_edges(v)) {
      if (out.edge_start[e] >= 0.0) note_input(r, out.edge_finish[e], ws.edge_seq[e]);
    }
    if (ws.remaining_inputs[v] == 0) {
      ++r.version;
      push(r);
    }
  }

  void start_task(int v, double t) {
    const int d = p.device_of(v);
    ++ws.running[d];
    out.tasks[v].start = t;
    const double w = realize(lat.compute_time(g, n, v, d), opt);
    if (rec != nullptr) rec->task_event_seq[v] = seq;
    if (faults == nullptr) {
      push_event(t + w, kTaskDone, v);
      return;
    }
    // A straggler stretches the duration; the version lets a later rescale
    // or crash supersede this completion.
    const double finish = t + w * faults->scale[d];
    faults->task_finish_at[v] = finish;
    push_event(finish, kTaskDone, v, faults->task_version[v]);
  }

  void make_runnable(int v, double t) {
    const int d = p.device_of(v);
    // Inputs arrived at a dead device: the task can never run (stranded).
    if (faults != nullptr && faults->up[d] == 0) return;
    if (rec != nullptr) rec->runnable_order[v] = runnable_rank;
    ++runnable_rank;
    if (ws.running[d] < n.device(d).cores && ws.fifo.empty(d)) {
      start_task(v, t);
    } else {
      ws.fifo.push(d, v);
    }
  }

  void run() {
    while (!ws.heap.empty()) {
      const SimEvent ev = pop();
      if (ev.kind == kTaskDone) {
        const int v = ev.id;
        if (faults != nullptr && ev.version != faults->task_version[v]) {
          continue;  // stale: rescaled or killed
        }
        out.tasks[v].finish = ev.time;
        ++completed;
        const int d = p.device_of(v);
        // Outputs start transmitting to every child's device - concurrently in
        // the paper's model, behind every busy link of the route (NIC links
        // included) under contention.
        for (int e : g.out_edges(v)) {
          const int child = g.edge(e).dst;
          const int dl = p.device_of(child);
          const double c = realize(lat.comm_time(g, n, e, d, dl), opt);
          double start = ev.time;
          if (shared != nullptr && dl != d) {
            for (const int li : shared->links_on(d, dl)) {
              start = std::max(start, ws.link_free[li]);
            }
          }
          double dur = c;
          const int tl =
              trace != nullptr ? ws.trace_link[static_cast<std::size_t>(d) * nd + dl]
                               : -1;
          if (tl >= 0) {
            // Split the realized time into startup (delay) and wire (bandwidth)
            // portions; only the wire portion scales with the link conditions.
            // Noise is multiplicative, so the realized startup keeps the
            // expected startup fraction de / ce of the realized total.
            const double ce = lat.comm_time(g, n, e, d, dl);
            const double de = lat.comm_startup(g, n, e, d, dl);
            const double dr = ce > 0.0 ? de * (c / ce) : 0.0;
            const TraceSegment& seg = ws.trace_cur[tl];
            const double startup = dr + seg.delay_add;
            dur = startup + (c - dr) * ws.trace_factor[tl];
            ws.edge_wire_begin[e] = start + startup;
            ws.edge_wire_factor[e] = ws.trace_factor[tl];
          } else if (trace != nullptr) {
            ws.edge_wire_begin[e] = start;
            ws.edge_wire_factor[e] = 1.0;
          }
          if (shared != nullptr && dl != d) {
            // Reserve every link on the route for the whole transfer
            // (store-and-forward is not modeled; the route is one pipe).
            for (const int li : shared->links_on(d, dl)) {
              ws.link_free[li] = start + dur;
            }
          }
          // The transfer takes the seq its own arrival event would have
          // had; only the child's inputs-ready event is queued.
          out.edge_start[e] = start;
          out.edge_finish[e] = start + dur;
          if (rec != nullptr) rec->edge_event_seq[e] = seq;
          if (trace != nullptr) ws.edge_seq[e] = seq;
          send_input(child, start + dur, seq++);
        }
        --ws.running[d];
        if (!ws.fifo.empty(d) && ws.running[d] < n.device(d).cores) {
          start_task(ws.fifo.pop(d), ev.time);
        }
      } else if (ev.kind == kInputsReady) {
        const int v = ev.id;
        if (trace != nullptr && ev.version != ws.ready[v].version) {
          continue;  // stale: a breakpoint re-keyed it
        }
        make_runnable(v, ev.time);
      } else if (ev.kind == kFrameArrival) {
        // Frame ev.id enters the stream: its entry-task copies join their
        // device queues (or start) in base entry order, like frame 0 at t = 0.
        const int base = ev.id * stream->base_tasks;
        for (const int v : *stream->entries) make_runnable(base + v, ev.time);
      } else if (ev.kind == kFault) {
        apply_fault(faults->actions[ev.id], ev.time);
      } else {  // kBreakpoint
        const auto [li, si] = (*breakpoints)[ev.id];
        const TraceSegment& seg = trace->links[li].segments[si];
        ws.trace_cur[li] = seg;
        const double f_new = wire_factor(seg);
        ws.trace_factor[li] = f_new;
        const int k = trace->links[li].src;
        const int l = trace->links[li].dst;
        // Rescale the remaining wire time of every in-flight transfer on this
        // link, in ascending edge-id order (the oracle mirrors this order).
        // In flight means sent and not yet arrived: a breakpoint pops before
        // every arrival at its instant. delay_add changes never affect
        // in-flight transfers: their startup was committed at dispatch.
        const int ne = g.num_edges();
        for (int e = 0; e < ne; ++e) {
          if (out.edge_start[e] < 0.0 || out.edge_finish[e] < ev.time) continue;
          if (p.device_of(g.edge(e).src) != k || p.device_of(g.edge(e).dst) != l) {
            continue;
          }
          if (ws.edge_wire_factor[e] == f_new) continue;
          const double anchor = std::max(ev.time, ws.edge_wire_begin[e]);
          const double remaining = out.edge_finish[e] - anchor;
          if (remaining <= 0.0) {
            // Wire already done (finishing this instant, or still in startup
            // with zero wire time): the arrival keeps its time and seq.
            ws.edge_wire_factor[e] = f_new;
            continue;
          }
          // The re-timed arrival takes a fresh seq, as a fresh event would.
          out.edge_finish[e] = anchor + remaining * (f_new / ws.edge_wire_factor[e]);
          ws.edge_wire_factor[e] = f_new;
          ws.edge_seq[e] = seq++;
          rekey_inputs_ready(g.edge(e).dst);
        }
      }
    }
  }

  /// Applies one crash, leave or slowdown action at time t (faults.cpp).
  void apply_fault(const FaultContext::Action& a, double t);

  /// Completion check, makespan, and the recorded-state epilogue. Only a
  /// fault run may leave tasks unfinished (stranded); the makespan spans the
  /// completed tasks (0 when none completed).
  void finalize(const char* caller) {
    const int nv = g.num_tasks();
    if (faults == nullptr && completed != nv) {
      throw std::logic_error(std::string(caller) +
                             ": not all tasks completed (cyclic graph?)");
    }
    double first_start = std::numeric_limits<double>::infinity();
    double last_finish = -first_start;
    for (const TaskTiming& t : out.tasks) {
      if (t.finish < 0.0) continue;
      first_start = std::min(first_start, t.start);
      last_finish = std::max(last_finish, t.finish);
    }
    out.makespan = last_finish >= first_start ? last_finish - first_start : 0.0;
    if (rec != nullptr) {
      rec->total_seq = seq;
      rec->next_runnable_rank = runnable_rank;
      rec->valid = true;
    }
  }
};

/// The full init-run-finalize pipeline behind simulate_into(),
/// simulate_streaming() and simulate_with_faults(): validates options, resets
/// workspace buffers, seeds trace breakpoints / frame arrivals / entry tasks /
/// fault actions, and drives SimEngine. `plan == nullptr` and
/// `faults == nullptr` is exactly simulate_into(); with a plan, `g` and `p`
/// must be the frame-replicated instance the plan describes; `faults` must
/// be sized for (g, n). `record` is non-null only from the recording
/// simulate_into() overload, which passes default (static) options.
/// `caller` prefixes every diagnostic.
void simulate_core(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                   const LatencyModel& lat, SimWorkspace& ws, Schedule& out,
                   const SimOptions& opt, DeltaSimState* record,
                   const StreamPlan* plan, FaultContext* faults, const char* caller);

}  // namespace giph::detail
