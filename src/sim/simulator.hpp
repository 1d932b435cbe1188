#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "graph/placement.hpp"
#include "graph/topology.hpp"
#include "sim/latency_model.hpp"
#include "sim/network_trace.hpp"

namespace giph {

/// Start/finish times of one task execution.
struct TaskTiming {
  double start = 0.0;
  double finish = 0.0;
};

/// Full timing trace of one simulated run of a placed task graph.
struct Schedule {
  std::vector<TaskTiming> tasks;     ///< per task id
  std::vector<double> edge_start;    ///< per edge id: transmission start
  std::vector<double> edge_finish;   ///< per edge id: data available at dst
  double makespan = 0.0;             ///< exit finish - entry start
};

/// Simulation options. With noise sigma > 0, every realized computation /
/// communication time is drawn uniformly from [x(1-sigma), x(1+sigma)] around
/// the expected value x, using the provided engine (required when sigma > 0).
/// sigma must be < 1: at sigma >= 1 the multiplicative draw could produce
/// negative durations and corrupt the event queue.
struct SimOptions {
  double noise = 0.0;
  std::mt19937_64* rng = nullptr;
  /// Optional piecewise-constant per-link conditions (bandwidth factor,
  /// added startup delay, drop probability). A transfer in flight when a
  /// segment boundary passes has its remaining wire time rescaled at the
  /// breakpoint; breakpoints take effect *before* same-time sim events.
  /// nullptr or an empty trace leaves output bitwise identical to today's
  /// simulator. Must outlive the call; validated against the network.
  const NetworkTrace* trace = nullptr;
  /// Optional link contention: a remote transfer waits until every link on
  /// its route is free, then reserves them all until it finishes. Physical
  /// links come from build_shared_link_map; add_nic_links adds one NIC link
  /// per device, which serializes that device's remote sends. Local
  /// (same-device) transfers bypass every link. nullptr, or a map with only
  /// empty routes, leaves output bitwise identical. Must outlive the call;
  /// checked with validate_shared_link_map.
  const SharedLinkMap* shared_links = nullptr;
};

/// Throws std::invalid_argument when `opt` is unusable: noise is NaN or
/// >= 1.0, or noise > 0 without an engine. Shared by every simulator entry
/// point so the error surfaces at the caller's mistake, not inside the event
/// loop.
void validate_sim_options(const SimOptions& opt, const char* caller);

namespace detail {

/// One pending simulator event. Exposed only so SimWorkspace can own the
/// event-heap storage; not part of the public API.
struct SimEvent {
  double time;
  long seq;     // creation order, breaks time ties deterministically
  int kind;     // task done, inputs ready, breakpoint, frame arrival, fault
  int id;       // task id, breakpoint, frame, or fault-action index
  int version;  // stale when != the task's inputs-ready (or task-done) version
};

/// Per-device FIFOs of runnable task ids, threaded through one per-task link
/// array. A task joins a queue at most once per run, so storage sized for
/// the run's tasks and devices never grows: a warm run allocates nothing.
struct DeviceQueues {
  std::vector<int> head, tail;  ///< per device: first / last task, -1 if empty
  std::vector<int> next;        ///< per task: the task queued behind it

  void reset(int num_devices, int num_tasks) {
    head.assign(num_devices, -1);
    tail.assign(num_devices, -1);
    if (static_cast<int>(next.size()) < num_tasks) next.resize(num_tasks);
  }
  bool empty(int d) const { return head[d] < 0; }
  void push(int d, int v) {
    next[v] = -1;
    if (tail[d] < 0) {
      head[d] = v;
    } else {
      next[tail[d]] = v;
    }
    tail[d] = v;
  }
  int pop(int d) {
    const int v = head[d];
    head[d] = next[v];
    if (head[d] < 0) tail[d] = -1;
    return v;
  }
  void clear(int d) { head[d] = tail[d] = -1; }
};

}  // namespace detail

/// Reusable simulation buffers. One workspace amortizes every per-call
/// allocation of the discrete-event loop (event heap, dependency counters,
/// FIFO queues, link reservations) across the millions of simulations a
/// training or evaluation run performs: after the first call at a given
/// problem size, simulate_into() performs no steady-state heap allocations.
///
/// A workspace carries no results and may be reused freely across different
/// graphs, networks, and placements; it is NOT safe to share one workspace
/// between concurrent simulations (use one per thread).
struct SimWorkspace {
  std::vector<detail::SimEvent> heap;  ///< binary min-heap on (time, seq)
  std::vector<int> remaining_inputs;   ///< per task: inputs not yet sent
  /// Per task: its inputs-ready event, keyed by the latest (arrival, seq)
  /// among the inputs sent so far; queued once the last input is sent.
  std::vector<detail::SimEvent> ready;
  detail::DeviceQueues fifo;
  std::vector<int> running;
  // Dynamic-network buffers, touched only when SimOptions::trace /
  // shared_links are active (the static-network fast path never sizes them).
  std::vector<double> link_free;        ///< per link (shared_links)
  std::vector<int> trace_link;          ///< device pair -> trace link idx or -1
  std::vector<TraceSegment> trace_cur;  ///< per trace link: active segment
  std::vector<double> trace_factor;     ///< per trace link: current wire factor
  std::vector<long> edge_seq;           ///< per edge: seq of its arrival key
  std::vector<double> edge_wire_begin;  ///< per edge: when wire time starts
  std::vector<double> edge_wire_factor; ///< per edge: factor baked into finish
  /// simulate_delta() reconstruction scratch: (recorded runnable rank, task)
  /// of every task queued at the dirty time.
  std::vector<std::pair<long, int>> delta_queued;
};

/// Bookkeeping recorded by a full simulation (and written by delta replays)
/// that lets simulate_delta() reconstruct the exact mid-run simulator state at
/// the dirty-time boundary of a one-task move. The recorded event seqs and
/// runnable ranks preserve the full run's deterministic tie-breaking, which is
/// what makes the incremental path bitwise-identical.
///
/// Only the recording simulate_into() overload fills a state from scratch,
/// and it always runs the static model (no noise, trace or link contention),
/// the only model simulate_delta() replays. One state belongs to one (graph,
/// network) chain of schedules: a recording run seeds it, and each
/// simulate_delta() call reads the previous state and writes the next one
/// into a second state, so single-move steps chain indefinitely. A replay
/// numbers its events and ranks exactly like a full run, so every state in a
/// chain is bitwise the one a recording run of its placement would write.
/// Evaluating a move without taking it keeps the previous state: replay into
/// a second state, then keep it (the move is taken) or drop it (the previous
/// one still describes the unchanged schedule), as
/// PlacementSearchEnv::try_move / commit do. Copy-assignment reuses the
/// target's capacity.
struct DeltaSimState {
  bool valid = false;  ///< false until a recording run completes
  /// Per task: position in the run's make_runnable() order (0 .. V - 1).
  std::vector<long> runnable_order;
  std::vector<long> task_event_seq;  ///< per task: seq of its task-done event
  /// Per edge: the seq its transfer took when sent, the tie-break of its
  /// arrival (an inputs-ready event is keyed by its latest input's).
  std::vector<long> edge_event_seq;
  long total_seq = 0;            ///< seq counter at run end (V + E)
  long next_runnable_rank = 0;   ///< rank counter at run end (V)
};

/// Outcome of simulate_delta(): whether the incremental replay ran or the
/// call fell back to a full simulation (either way `out` holds the exact
/// full-simulation schedule).
enum class DeltaSimResult { kReplayed, kFellBack };

/// Why simulate_delta() fell back to a full simulation.
enum class DeltaFallback {
  kNone,          ///< it replayed
  kInvalidState,  ///< the previous state is invalid or sized for another instance
  kEntryTask,     ///< the moved task is an entry task: dirty from t = 0
  kPrefixGate,    ///< fewer than 5% of the tasks finish before the dirty time
};

/// What one simulate_delta() call did, for tests and the fuzzer's coverage
/// counts. The schedule and state it writes do not depend on it.
struct DeltaSimReport {
  DeltaFallback fallback = DeltaFallback::kNone;
  /// The dirty time is the moved task's new inputs-ready time (strictly
  /// earlier than its old one).
  bool dirty_from_new_arrival = false;
  /// Every input of the moved task was sent before the dirty time, so its
  /// inputs-ready event was rebuilt from their new arrivals.
  bool inputs_sent_before_t0 = false;
};

/// Discrete-event runtime simulator (Appendix B.5).
///
/// Execution model: each device runs at most one task at a time,
/// non-preemptively, serving runnable tasks from a FIFO queue in the order
/// they became runnable; inter-device transfers are contention-free and
/// overlap with computation; a task becomes runnable once all parent outputs
/// have arrived at its device. Entry tasks are runnable at t = 0.
/// SimOptions::shared_links adds NIC and physical-link contention, and
/// SimOptions::trace adds time-varying link conditions; both default off,
/// reproducing the paper's model bitwise. Default options are the static
/// model, the one simulate_delta() replays.
///
/// Throws std::invalid_argument for infeasible placements and std::logic_error
/// for cyclic graphs.
Schedule simulate(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                  const LatencyModel& lat, const SimOptions& opt = {});

/// Allocation-free core of simulate(): writes the schedule into `out` reusing
/// both the workspace buffers and `out`'s own vectors. Output is bitwise
/// identical to simulate() for the same inputs, regardless of what the
/// workspace or `out` previously held.
void simulate_into(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                   const LatencyModel& lat, SimWorkspace& ws, Schedule& out,
                   const SimOptions& opt = {});

/// Recording run of the static model: simulate_into() with default
/// SimOptions that additionally fills `record` with the bookkeeping
/// simulate_delta() needs (a few percent of extra work; the output schedule
/// is unaffected). The only way to fill a DeltaSimState.
void simulate_into(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                   const LatencyModel& lat, SimWorkspace& ws, Schedule& out,
                   DeltaSimState& record);

/// Incremental re-simulation of a one-task move under the static model (the
/// noise-free, contention-free simulator of Appendix B.5, which is what the
/// search scores moves with): `p` must differ from the placement that
/// produced `prev` at most at `moved_task`, `prev` must be the schedule of a
/// run that recorded (or replayed into) `prev_state` under the same graph,
/// network and latency model, and neither output may alias its input.
///
/// The dirty time T0 is the earlier of the moved task's old inputs-ready time
/// and its new one (the latest recorded dispatch plus comm time to its new
/// device over its inputs). Before T0 the two runs pop the same events and
/// the moved task is runnable in neither, so the call reconstructs the
/// simulator state at T0 straight from `prev` + `prev_state` (the moved
/// task's already-sent inputs take their new arrivals) and replays only
/// events at or after it. Work is proportional to the affected suffix
/// instead of the whole graph.
///
/// Falls back to a full recording simulation (same output, DeltaSimResult::
/// kFellBack) when the replay cannot or need not run: invalid or mismatched
/// `prev_state`, a moved entry task (dirty from t = 0), or an unaffected
/// prefix below 5% of the tasks. Either way `out` and `state` end bitwise
/// identical to what the recording simulate_into() would write, so
/// single-move steps chain indefinitely. `report`, when given, says which
/// path ran.
DeltaSimResult simulate_delta(const TaskGraph& g, const DeviceNetwork& n,
                              const Placement& p, int moved_task,
                              const LatencyModel& lat, SimWorkspace& ws,
                              const Schedule& prev, const DeltaSimState& prev_state,
                              Schedule& out, DeltaSimState& state,
                              DeltaSimReport* report = nullptr);

/// Process-wide count of simulator invocations (simulate, simulate_into,
/// simulate_with_faults, and simulate_delta all count). Monotonic,
/// thread-safe; used by tests as a regression tripwire for the
/// one-simulation-per-search-step invariant. Equal to full_simulation_count()
/// + delta_simulation_count().
std::uint64_t simulation_count() noexcept;

/// Full event-loop runs (everything except delta replays; a simulate_delta
/// call that falls back counts here, via its inner full simulation).
std::uint64_t full_simulation_count() noexcept;

/// simulate_delta() calls that actually replayed incrementally.
std::uint64_t delta_simulation_count() noexcept;

/// simulate_delta() calls that fell back to a full simulation.
std::uint64_t delta_fallback_count() noexcept;

namespace detail {
/// Increments full_simulation_count(); for simulator implementations only.
void bump_simulation_count() noexcept;
/// Increments delta_simulation_count(); for simulate_delta only.
void bump_delta_simulation_count() noexcept;
/// Increments delta_fallback_count(); for simulate_delta only.
void bump_delta_fallback_count() noexcept;
}  // namespace detail

/// Expected makespan (noise-free simulation). Convenience wrapper.
double makespan(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                const LatencyModel& lat);

/// Earliest possible start time of task v on device d given the parent finish
/// times of `sched` (what-if analysis; ignores queueing on d). Entry tasks
/// return 0. Used for the gpNet "start-time potential" feature.
double earliest_start_on(const Schedule& sched, const TaskGraph& g,
                         const DeviceNetwork& n, const Placement& p,
                         const LatencyModel& lat, int v, int d);

/// Queue-aware variant: additionally accounts for device d being busy with
/// tasks that run before v in the current schedule (FIFO devices serve one
/// task at a time). This mirrors HEFT's processor-ready term and is the est
/// used by EFT device selection and the gpNet start-time-potential feature.
/// O(V) per call; the ScheduleIndex overload (schedule_index.hpp) answers the
/// same query in O(in_degree + log V).
double earliest_start_on_queued(const Schedule& sched, const TaskGraph& g,
                                const DeviceNetwork& n, const Placement& p,
                                const LatencyModel& lat, int v, int d);

}  // namespace giph
