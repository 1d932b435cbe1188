#pragma once

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace giph {

/// Kinds of injected faults / dynamic-network events (Section 5 motivates
/// adaptivity to exactly these changes; the paper evaluates only benign
/// multiplicative noise, so this subsystem is the robustness extension).
enum class FaultKind {
  /// Device fails hard at `time`: the task running on it is killed, queued
  /// tasks never run, and everything placed there that has not finished is
  /// stranded. In-flight transfers already on the wire complete.
  kDeviceCrash,
  /// Graceful churn departure at `time`: the task already running finishes
  /// (and its outputs are sent), but tasks not yet started on the device are
  /// stranded.
  kDeviceLeave,
  /// Straggler: from `time` until `until`, durations on the device are
  /// stretched by `factor` (> 1 = slower). The remaining work of a task
  /// already running is rescaled, so a permanent slowdown at t = 0 is
  /// equivalent to a proportionally slower device.
  kSlowdown,
  /// Link degradation: from `time` until `until`, the directed link
  /// (src -> dst) has its bandwidth divided by `factor` and `delay_add` added
  /// to its startup delay, exactly as post_fault_network() folds a permanent
  /// degrade into the link. Only the *wire* time of a transfer stretches; the
  /// startup portion (LatencyModel::comm_startup) does not. The fault path
  /// replays degrades as NetworkTrace segments: overlapping degrades on one
  /// link multiply their factors and add their delays, and a transfer in
  /// flight when a degrade starts or ends has its remaining wire time
  /// rescaled like at any trace breakpoint (which acts before same-time sim
  /// events, unlike crash, leave and slowdown actions).
  kLinkDegrade,
  /// Churn join at `time`: device `joined` becomes available with symmetric
  /// links of `join_bandwidth` / `join_delay` to every existing device. A
  /// fixed placement cannot use it; it matters for re-placement
  /// (post_fault_network() includes it).
  kDeviceJoin,
};

/// One scheduled fault event. Fields not used by the kind are ignored.
struct FaultEvent {
  FaultKind kind = FaultKind::kDeviceCrash;
  double time = 0.0;  ///< simulation time at which the event fires
  int device = -1;    ///< crash / leave / slowdown target
  int link_src = -1;  ///< kLinkDegrade: directed link source
  int link_dst = -1;  ///< kLinkDegrade: directed link destination
  double factor = 1.0;    ///< duration multiplier (slowdown / link degrade)
  double delay_add = 0.0; ///< kLinkDegrade: extra per-transfer startup delay
  /// End of a transient effect; infinity = permanent.
  double until = std::numeric_limits<double>::infinity();
  Device joined;               ///< kDeviceJoin: the new device
  double join_bandwidth = 1.0; ///< kDeviceJoin: symmetric link bandwidth
  double join_delay = 0.0;     ///< kDeviceJoin: symmetric link delay
};

/// A deterministic, seeded fault schedule: the same plan replayed against the
/// same placement with the same SimOptions yields a bitwise-identical result.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const noexcept { return events.empty(); }
};

/// Validates `plan` against `n` (device ids may also reference devices joined
/// by *earlier* join events of the plan, in time order; events need not be
/// pre-sorted - every consumer sorts stably by time). Throws
/// std::invalid_argument naming the offending event (its describe() rendering
/// and position in the plan), the bad field, and the accepted range. Called
/// by simulate_with_faults, post_fault_network (and so the robustness
/// harness), and generate_fault_plan itself.
void validate_fault_plan(const FaultPlan& plan, const DeviceNetwork& n);

/// Parameters of the seeded random fault-plan generator. Event times are
/// drawn uniformly from [0, horizon].
struct FaultPlanParams {
  double horizon = 100.0;  ///< time window in which events fire
  int crashes = 1;
  int leaves = 0;
  int slowdowns = 0;
  int link_degrades = 0;
  int joins = 0;
  double slowdown_factor = 3.0;     ///< duration multiplier of stragglers
  double link_factor = 4.0;         ///< duration multiplier of degraded links
  double transient_fraction = 0.5;  ///< probability a slowdown/degrade is transient
};

/// Draws a random fault plan. Deterministic for a fixed rng state; events are
/// returned sorted by time. Crash/leave targets are distinct devices and at
/// least one device is always left untouched so repair stays possible.
FaultPlan generate_fault_plan(const DeviceNetwork& n, const FaultPlanParams& params,
                              std::mt19937_64& rng);

/// Parses a compact comma-separated fault spec, e.g.
///   "crash:2@30,leave:0@45,slow:1@10x3:60,link:0-3@20x4+5,join@50"
/// Grammar per event:
///   crash:<dev>@<t>            leave:<dev>@<t>
///   slow:<dev>@<t>x<factor>[:<until>]
///   link:<src>-<dst>@<t>x<factor>[+<delay>][:<until>]
///   join@<t>[x<speed>]
/// Throws std::invalid_argument on malformed specs.
FaultPlan parse_fault_plan(const std::string& spec);

/// One-line human-readable rendering of an event (logging / CLI output).
std::string describe(const FaultEvent& e);

/// Result of a fault-aware simulation.
struct FaultSimResult {
  /// Timing of the tasks that completed; stranded tasks keep start/finish of
  /// -1. makespan spans completed tasks only (0 when nothing ran).
  Schedule schedule;
  /// Task ids that could not complete (killed, never started on a dead
  /// device, or transitively starved of an input), ascending.
  std::vector<int> stranded;
  /// Devices that were crashed or left by the end of the run.
  std::vector<int> failed_devices;

  /// True when every task completed despite the faults.
  bool completed() const noexcept { return stranded.empty(); }
};

/// Replays `p` under the fault plan through the same event engine as
/// simulate(): crashes and leaves take devices down, stragglers rescale
/// running work, and link degrades become NetworkTrace segments. Composes
/// with noise and with link contention (SimOptions::shared_links, NIC links
/// included). With an empty plan the result's schedule is bitwise identical
/// to simulate()'s (including the noise draw order), so the fault path is a
/// strict superset of the benign simulator. Throws like simulate(), and
/// std::invalid_argument for an invalid plan or a non-empty SimOptions::trace
/// (encode time-varying links as kLinkDegrade events instead). Counts as one
/// full simulation.
FaultSimResult simulate_with_faults(const TaskGraph& g, const DeviceNetwork& n,
                                    const Placement& p, const LatencyModel& lat,
                                    const FaultPlan& plan, const SimOptions& opt = {});

/// The device network as it stands after every event of `plan` has fired,
/// over the plan's device universe: the base devices, then the joined ones in
/// join order. Joins add their device and links, and slowdowns and degrades
/// with until == infinity are applied. Crashed and departed devices stay in
/// `network` with `up[k] == 0` (eval's churn harness compacts them away).
struct PostFaultNetwork {
  DeviceNetwork network;
  std::vector<char> up;
};
PostFaultNetwork post_fault_network(const DeviceNetwork& base, const FaultPlan& plan);

/// Maps a placement through old_to_new (-1 for a removed device); tasks on
/// removed devices become unplaced (-1).
Placement remap_placement(const Placement& p, const std::vector<int>& old_to_new);

/// Copy of `g` with pinned-device ids mapped through old_to_new. A task
/// pinned to a removed device is pinned to INT_MAX, which no device satisfies:
/// feasibility checks then report the instance unrecoverable instead of
/// silently unpinning.
TaskGraph remap_pinned(const TaskGraph& g, const std::vector<int>& old_to_new);

}  // namespace giph
