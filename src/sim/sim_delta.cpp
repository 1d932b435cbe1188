// simulate_delta(): incremental re-simulation of a single-task move under the
// static model (default SimOptions: no noise, trace or link contention).
//
// Correctness rests on one structural fact about the event core: a task that
// is runnable but not yet started is inert. It displaces nothing — pops ahead
// of it in the FIFO are unaffected, and a device never sits idle with a
// non-empty queue outside event processing — so moving task m changes nothing
// observable before
//
//   T0 = min(prev start of m, min over in-edges of prev parent finish)
//
// (every input transfer of m dispatches at a parent finish >= T0, and m
// itself starts at >= T0 on either device). The previous run and the new run
// are therefore identical, event for event, strictly before T0; this file
// rebuilds the simulator state at T0 directly from the previous schedule plus
// the DeltaSimState bookkeeping and replays only the suffix through the same
// SimEngine that full runs use.
//
// Determinism: events tie-break on creation seq. Pending events that cross T0
// are re-seeded with their original recorded seqs (a task's inputs-ready
// event with the recorded seq of its latest input sent before T0), and
// replay-created seqs number from the previous run's final seq — every
// pending seq sorts below every replay seq, and replay creation order matches
// the true full run's suffix creation order, so tie-breaking is
// order-isomorphic to the full run (and stays so across chained replays;
// runnable ranks follow the same scheme). Anything this argument does not
// cover falls back to a full run.

#include <algorithm>
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
                              const Schedule& prev, DeltaSimState& ds, Schedule& out) {
  const int nv = g.num_tasks();
  const int ne = g.num_edges();
  const int nd = n.num_devices();
  if (moved_task < 0 || moved_task >= nv) {
    throw std::invalid_argument("simulate_delta: moved_task out of range");
  }
  if (&prev == &out) {
    throw std::invalid_argument("simulate_delta: prev must not alias out");
  }
  // Only the moved task can have changed device; the rest of the placement
  // was validated by the run that produced `prev`.
  if (!device_feasible(g, n, moved_task, p.device_of(moved_task))) {
    throw std::invalid_argument("simulate_delta: infeasible placement");
  }

  const auto fall_back = [&]() {
    detail::bump_delta_fallback_count();
    simulate_into(g, n, p, lat, ws, out, ds);
    return DeltaSimResult::kFellBack;
  };

  if (!ds.valid || static_cast<int>(prev.tasks.size()) != nv ||
      static_cast<int>(prev.edge_start.size()) != ne ||
      static_cast<int>(prev.edge_finish.size()) != ne ||
      static_cast<int>(ds.runnable_order.size()) != nv ||
      static_cast<int>(ds.task_event_seq.size()) != nv ||
      static_cast<int>(ds.edge_event_seq.size()) != ne) {
    return fall_back();
  }
  // A moved entry task is runnable at t = 0 on its new device: dirty from the
  // start, nothing to reuse.
  if (g.in_degree(moved_task) == 0) return fall_back();

  double t0 = prev.tasks[moved_task].start;
  for (int e : g.in_edges(moved_task)) {
    t0 = std::min(t0, prev.tasks[g.edge(e).src].finish);
  }
  // Count the unaffected prefix (empty when T0 = 0).
  int completed = 0;
  for (const TaskTiming& t : prev.tasks) {
    if (t.finish < t0) ++completed;
  }
  if (completed < kMinPrefixFraction * nv) return fall_back();

  detail::bump_delta_simulation_count();
  ds.valid = false;  // a mid-replay throw leaves ds unusable

  // ---- reconstruct the simulator state at T0 -----------------------------
  // The prefix of the previous schedule is the prefix of the new one; replay
  // overwrites every suffix value.
  out.tasks.assign(prev.tasks.begin(), prev.tasks.end());
  out.edge_start.assign(prev.edge_start.begin(), prev.edge_start.end());
  out.edge_finish.assign(prev.edge_finish.begin(), prev.edge_finish.end());
  out.makespan = 0.0;

  detail::SimEngine eng{g,       n,       p,       lat, ws, out, kStaticModel,
                        nullptr, nullptr, nullptr, &ds, nd};

  // An input counts as sent iff its producer finished strictly before T0 (a
  // task-done event at exactly T0 is replayed). Each task's inputs-ready key
  // starts as the latest (arrival, recorded seq) among its sent inputs.
  ws.remaining_inputs.assign(nv, 0);
  ws.ready.resize(nv);
  for (int v = 0; v < nv; ++v) ws.ready[v] = detail::no_inputs_yet(v);
  for (int e = 0; e < ne; ++e) {
    const int child = g.edge(e).dst;
    if (prev.tasks[g.edge(e).src].finish < t0) {
      detail::note_input(ws.ready[child], prev.edge_finish[e], ds.edge_event_seq[e]);
    } else {
      ++ws.remaining_inputs[child];
    }
  }

  ws.fifo.reset(nd, nv);
  ws.running.assign(nd, 0);
  ws.heap.clear();

  // Tasks mid-execution at T0 keep their recorded task-done events. The moved
  // task never lands here: its previous start is >= T0 by construction, so
  // its (possibly changed) device assignment is never consulted for the
  // prefix.
  for (int v = 0; v < nv; ++v) {
    const TaskTiming& t = prev.tasks[v];
    if (t.start < t0 && t.finish >= t0) {
      ++ws.running[p.device_of(v)];
      eng.push(detail::SimEvent{t.finish, ds.task_event_seq[v], detail::kTaskDone, v, 0});
    }
  }

  // Tasks with every input sent before T0: runnable before T0 (the last input
  // arrived before it, or an entry task) yet scheduled to start at or after
  // it are re-queued in recorded runnable order; the rest become runnable in
  // the suffix, and their inputs-ready events cross the boundary with their
  // recorded keys. The moved task is in neither group: its inputs are all
  // sent at or after T0.
  auto& seed = ds.runnable_scratch;
  seed.clear();
  for (int v = 0; v < nv; ++v) {
    if (ws.remaining_inputs[v] != 0) continue;
    if (ws.ready[v].time >= t0) {
      eng.push(ws.ready[v]);
    } else if (prev.tasks[v].start >= t0) {
      seed.emplace_back(ds.runnable_order[v], v);
    }
  }
  std::sort(seed.begin(), seed.end());
  for (const auto& [rank, v] : seed) ws.fifo.push(p.device_of(v), v);

  // ---- replay the suffix --------------------------------------------------
  eng.seq = ds.total_seq;
  eng.completed = completed;
  eng.runnable_rank = ds.next_runnable_rank;
  eng.run();
  eng.finalize("simulate_delta");
  return DeltaSimResult::kReplayed;
}

}  // namespace giph
