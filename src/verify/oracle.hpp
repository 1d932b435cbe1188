#pragma once

#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"

namespace giph {

/// Reference oracle simulator: an independent, deliberately naive
/// re-implementation of the Appendix B.5 execution model, used only to
/// cross-check the production simulator (differential testing).
///
/// Semantics implemented from first principles, sharing nothing with
/// simulate() beyond the data types and their validators:
///   - each device runs at most `cores` tasks at a time, non-preemptively,
///     serving runnable tasks in the order they became runnable (FIFO);
///   - a task is runnable once every parent output has arrived at its device;
///     entry tasks are runnable at t = 0 in task-id order;
///   - transfers are contention-free and overlap with computation;
///   - latencies follow the LatencyModel (Eqs. 2-3 for the default model);
///   - with opt.noise > 0, every realized duration is drawn uniformly from
///     [x(1-sigma), x(1+sigma)], one draw per task start and per transfer;
///   - opt.trace applies piecewise-constant link conditions: breakpoints act
///     before same-time sim events and rescale the remaining wire time of
///     in-flight transfers (startup exempt), exactly like the simulator;
///   - opt.shared_links queues a remote transfer behind every busy link of
///     its route and reserves them all until it arrives (a NIC link from
///     add_nic_links is one more link on every route out of its device).
///
/// Implementation is one direct event-list interpretation, shared by all
/// three oracle entry points (one-shot, faulted, streamed): pending events
/// live in a flat list scanned linearly for the earliest (time, creation
/// order) entry; runnability is re-derived by scanning a task's in-edges;
/// device occupancy is re-counted by scanning started-but-unfinished tasks.
/// No event heap, no dependency counters, no workspace reuse, no index
/// structures - O(V * E * D)-ish and proud of it. The output is bitwise identical to
/// simulate() for every input, including the noise draw sequence.
///
/// Throws std::invalid_argument for bad options or infeasible placements and
/// std::logic_error for cyclic graphs, like simulate(). Does not count toward
/// simulation_count(): the oracle is a verifier, not a production code path.
Schedule oracle_simulate(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                         const LatencyModel& lat, const SimOptions& opt = {});

/// Reference fault-injection simulator: the oracle's flat event replay under
/// a FaultPlan, independent of simulate_with_faults(). It shares only the
/// plan, trace, and result data types, and interprets the fault semantics
/// from first principles:
///   - crash, leave, and straggler start/end entries join the flat list in
///     time order (plan order on ties, a transient straggler's end right
///     after its start), each ordered after every simulation entry at the
///     same instant, so a task finishing exactly at a crash completes;
///   - a crash or leave takes its device down for good: its queue is
///     dropped, and tasks that become runnable there never run; a crash also
///     withdraws the pending completions of the tasks running there and
///     forgets their starts, while a leave lets them finish and send;
///   - a straggler multiplies (its end divides) the device's stretch factor,
///     which scales the duration of every task started there, and moves each
///     running task's pending completion to t + remaining * new / old, in
///     ascending task-id order;
///   - link degrades become piecewise-constant link conditions that the
///     trace machinery above interprets: per degraded link (in order of its
///     first degrade in the plan), a condition change at each distinct
///     instant a degrade on it starts or ends, with bandwidth_factor
///     1 / (product of the active factors) and delay_add the sum of the
///     active delays, both taken in plan order;
///   - tasks left unfinished are stranded (ascending ids), failed devices
///     are the ones taken down (ascending), and the makespan spans the
///     completed tasks (0 when none completed).
/// Events on devices or links joined by the plan are inert, as are joins.
/// Output is bitwise identical to simulate_with_faults() for every input,
/// including the noise draw sequence and link contention; throws like it
/// (std::invalid_argument for a non-empty opt.trace).
FaultSimResult oracle_simulate_with_faults(const TaskGraph& g, const DeviceNetwork& n,
                                           const Placement& p, const LatencyModel& lat,
                                           const FaultPlan& plan,
                                           const SimOptions& opt = {});

/// Reference streaming simulator, independent of simulate_streaming(): the
/// oracle's one flat event replay run over the frame-replicated instance.
/// Frame f of task v is the task f * V + v (edge f * E + e), built by the
/// verification layer's own replication; the latency model is consulted
/// with base ids. The streaming semantics, from first principles:
///   - all F - 1 inter-arrival gaps are drawn up front in frame order
///     (uniform [interval(1-j), interval(1+j)] when jittered), before any
///     simulation draw;
///   - frame 0's entries are runnable at t = 0 in task-id order; frame f's
///     entries become runnable, in task-id order, at its arrival time, via
///     one arrival entry per frame created right after the breakpoint
///     entries (so an arrival beats same-time sim events, exactly like the
///     production event core);
///   - devices serve one FIFO across frames; link reservations (NIC links
///     included), traces, and noise span frame boundaries;
///   - per-frame finish/latency, throughput, and nearest-rank p50/p99 are
///     re-derived with the oracle's own arithmetic.
/// Output is bitwise identical to simulate_streaming() for every input,
/// including the draw sequence; throws like it.
StreamResult oracle_simulate_streaming(const TaskGraph& g, const DeviceNetwork& n,
                                       const Placement& p, const LatencyModel& lat,
                                       const StreamOptions& opt = {});

}  // namespace giph
