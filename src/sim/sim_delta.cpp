// simulate_delta(): incremental re-simulation of a single-task move under the
// static model (default SimOptions: no noise, trace or link contention).
//
// Correctness rests on one structural fact about the event core: until a
// task becomes runnable, its device is consulted only for the arrival times
// of its inputs, and those only key its own inputs-ready event. So moving
// task m changes nothing observable before
//
//   T0 = min(old inputs-ready time of m, new inputs-ready time of m)
//
// where the new one is the latest (recorded dispatch + comm time to m's new
// device) over m's inputs. Every parent of m finishes by T0 in the previous
// run, so before T0 the two runs pop the same events, take the same seqs and
// ranks, and m is runnable in neither. (Were m's true new inputs-ready time
// earlier than T0, every parent would have sent before it, at its recorded
// time, and the formula would give that time.) This file rebuilds the
// simulator state at T0 directly from the previous schedule plus the
// DeltaSimState bookkeeping, m's already-sent inputs taking their new
// arrivals, and replays only the suffix through the same SimEngine that full
// runs use.
//
// Numbering: the replay numbers like a full run. Its seq counter starts at
// the number of task starts and transfers sent before T0, and its runnable
// rank at the number of tasks made runnable before T0, which is where a full
// run's counters stand at T0. Pending events that cross T0 keep their
// recorded seqs (a task's inputs-ready event the recorded seq of its latest
// input sent before T0). So the replay takes every seq and rank a full run
// takes, the refreshed state is bitwise a recording run's, and chained
// replays stay exact by induction. Anything this argument does not cover
// falls back to a full run.

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "sim/sim_engine.hpp"
#include "sim/simulator.hpp"

namespace giph {
namespace {

// Replays whose unaffected prefix covers less than this fraction of the tasks
// fall back to a full simulation: a tiny prefix saves nothing over the full
// run, and the reconstruction itself costs O(V + E).
constexpr double kMinPrefixFraction = 0.05;

// The replayed model: what the recording simulate_into() overload runs.
const SimOptions kStaticModel{};

}  // namespace

DeltaSimResult simulate_delta(const TaskGraph& g, const DeviceNetwork& n,
                              const Placement& p, int moved_task,
                              const LatencyModel& lat, SimWorkspace& ws,
                              const Schedule& prev, const DeltaSimState& prev_state,
                              Schedule& out, DeltaSimState& state,
                              DeltaSimReport* report) {
  const int nv = g.num_tasks();
  const int ne = g.num_edges();
  const int nd = n.num_devices();
  if (moved_task < 0 || moved_task >= nv) {
    throw std::invalid_argument("simulate_delta: moved_task out of range");
  }
  if (&prev == &out) {
    throw std::invalid_argument("simulate_delta: prev must not alias out");
  }
  if (&prev_state == &state) {
    throw std::invalid_argument("simulate_delta: prev_state must not alias state");
  }
  // Only the moved task can have changed device; the rest of the placement
  // was validated by the run that produced `prev`.
  const int dm = p.device_of(moved_task);
  if (!device_feasible(g, n, moved_task, dm)) {
    throw std::invalid_argument("simulate_delta: infeasible placement");
  }

  DeltaSimReport unused;
  DeltaSimReport& rep = report != nullptr ? *report : unused;
  rep = DeltaSimReport{};
  const auto fall_back = [&](DeltaFallback cause) {
    rep.fallback = cause;
    detail::bump_delta_fallback_count();
    simulate_into(g, n, p, lat, ws, out, state);
    return DeltaSimResult::kFellBack;
  };

  if (!prev_state.valid || static_cast<int>(prev.tasks.size()) != nv ||
      static_cast<int>(prev.edge_start.size()) != ne ||
      static_cast<int>(prev.edge_finish.size()) != ne ||
      static_cast<int>(prev_state.runnable_order.size()) != nv ||
      static_cast<int>(prev_state.task_event_seq.size()) != nv ||
      static_cast<int>(prev_state.edge_event_seq.size()) != ne) {
    return fall_back(DeltaFallback::kInvalidState);
  }
  // A moved entry task is runnable at t = 0 on its new device: dirty from the
  // start, nothing to reuse.
  if (g.in_degree(moved_task) == 0) return fall_back(DeltaFallback::kEntryTask);

  // The new arrival of input e: its recorded dispatch plus the comm time to
  // the moved task's new device, as the engine computes it.
  const auto new_arrival = [&](int e) {
    return prev.edge_start[e] + lat.comm_time(g, n, e, p.device_of(g.edge(e).src), dm);
  };
  double old_ready = -std::numeric_limits<double>::infinity();
  double new_ready = old_ready;
  for (int e : g.in_edges(moved_task)) {
    old_ready = std::max(old_ready, prev.edge_finish[e]);
    new_ready = std::max(new_ready, new_arrival(e));
  }
  const double t0 = std::min(old_ready, new_ready);
  rep.dirty_from_new_arrival = new_ready < old_ready;

  // Count the unaffected prefix (empty when T0 = 0).
  int completed = 0;
  for (const TaskTiming& t : prev.tasks) {
    if (t.finish < t0) ++completed;
  }
  if (completed < kMinPrefixFraction * nv) return fall_back(DeltaFallback::kPrefixGate);

  detail::bump_delta_simulation_count();

  // ---- reconstruct the simulator state at T0 -----------------------------
  // The prefix of the previous schedule and state is the prefix of the new
  // ones; the replay overwrites every suffix value.
  out.tasks.assign(prev.tasks.begin(), prev.tasks.end());
  out.edge_start.assign(prev.edge_start.begin(), prev.edge_start.end());
  out.edge_finish.assign(prev.edge_finish.begin(), prev.edge_finish.end());
  out.makespan = 0.0;
  state = prev_state;
  state.valid = false;  // a mid-replay throw leaves the state unusable

  detail::SimEngine eng{g,       n,       p,       lat, ws, out, kStaticModel,
                        nullptr, nullptr, nullptr, &state, nd};

  // An input counts as sent iff its producer finished strictly before T0 (a
  // task-done event at exactly T0 is replayed), and each send took one seq.
  // Each task's inputs-ready key starts as the latest (arrival, recorded seq)
  // among its sent inputs.
  long seq = 0;
  ws.remaining_inputs.assign(nv, 0);
  ws.ready.resize(nv);
  for (int v = 0; v < nv; ++v) ws.ready[v] = detail::no_inputs_yet(v);
  const std::span<const DataLink> edges = g.edges();
  for (int e = 0; e < ne; ++e) {
    const DataLink& edge = edges[e];
    if (prev.tasks[edge.src].finish < t0) {
      ++seq;
      if (edge.dst != moved_task) {
        detail::note_input(ws.ready[edge.dst], prev.edge_finish[e],
                           prev_state.edge_event_seq[e]);
      }
    } else {
      ++ws.remaining_inputs[edge.dst];
    }
  }
  // The moved task's inputs sent before T0 arrive at its new device.
  for (int e : g.in_edges(moved_task)) {
    if (prev.tasks[g.edge(e).src].finish >= t0) continue;
    out.edge_finish[e] = new_arrival(e);
    detail::note_input(ws.ready[moved_task], out.edge_finish[e],
                       prev_state.edge_event_seq[e]);
  }
  rep.inputs_sent_before_t0 = ws.remaining_inputs[moved_task] == 0;

  ws.fifo.reset(nd, nv);
  ws.running.assign(nd, 0);
  ws.heap.clear();

  // Every task started before T0 took one seq; those mid-execution at T0 keep
  // their recorded task-done events. The moved task never started before T0:
  // it is not runnable before its old inputs-ready time.
  for (int v = 0; v < nv; ++v) {
    const TaskTiming& t = prev.tasks[v];
    if (t.start >= t0) continue;
    ++seq;
    if (t.finish >= t0) {
      ++ws.running[p.device_of(v)];
      eng.push(detail::SimEvent{t.finish, prev_state.task_event_seq[v],
                                detail::kTaskDone, v, 0});
    }
  }

  // Tasks whose last input arrived before T0 (entry tasks included) were made
  // runnable before it, one rank each; those scheduled to start at or after
  // T0 are re-queued in recorded runnable order. Tasks with every input sent
  // whose key is at or after T0 become runnable in the suffix: their
  // inputs-ready events cross the boundary with their keys. The moved task's
  // key is at or after T0 by the choice of T0.
  long rank = 0;
  auto& queued = ws.delta_queued;
  queued.clear();
  for (int v = 0; v < nv; ++v) {
    if (ws.remaining_inputs[v] != 0) continue;
    if (ws.ready[v].time >= t0) {
      eng.push(ws.ready[v]);
      continue;
    }
    ++rank;
    if (prev.tasks[v].start >= t0) queued.emplace_back(prev_state.runnable_order[v], v);
  }
  std::sort(queued.begin(), queued.end());
  for (const auto& [r, v] : queued) ws.fifo.push(p.device_of(v), v);

  // ---- replay the suffix --------------------------------------------------
  eng.seq = seq;
  eng.completed = completed;
  eng.runnable_rank = rank;
  eng.run();
  eng.finalize("simulate_delta");
  return DeltaSimResult::kReplayed;
}

}  // namespace giph
