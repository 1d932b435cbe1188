#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/reinforce.hpp"
#include "sim/faults.hpp"

namespace giph::eval {

/// Options of the robustness protocol. All randomness is derived from `seed`,
/// and every placer sees the same seeded initial placement, so a report is
/// bitwise reproducible for a fixed (instance, plan, seed).
struct RobustnessOptions {
  std::uint64_t seed = 1;
  /// Fault-free search budget = factor * |V| steps (the paper's 2|V|).
  int baseline_steps_factor = 2;
  /// Search budget of the post-fault repair; 0 = 2 * (tasks forced to move),
  /// at least 2. HEFT always pays a full reschedule of |V| tasks instead.
  int repair_budget = 0;
  /// Worker threads for the per-placer rows (1 = serial, <= 0 = one per
  /// hardware thread). Each row already has its own policy object, RNG, and
  /// environment, so the report is identical for every thread count.
  int threads = 1;
};

/// One placer's journey through the fault scenario.
struct RepairOutcome {
  std::string placer;
  /// False when the post-fault network cannot host the graph at all (a
  /// pinned task's device died, or no device remains for some requirement);
  /// repair fields are then meaningless (infinity / zero).
  bool recoverable = true;
  double fault_free_makespan = 0.0;
  /// Makespan of replaying the pre-fault placement against the fault plan;
  /// infinity when tasks were stranded (the placement is broken, not slow).
  double faulted_makespan = 0.0;
  int stranded_tasks = 0;  ///< tasks stranded before any repair
  /// Makespan of the repaired placement on the post-fault network.
  double recovery_makespan = 0.0;
  /// recovery_makespan / fault_free_makespan (>= ~1 means full recovery cost).
  double degradation_ratio = 0.0;
  /// Tasks whose device changed between the pre-fault and repaired placement.
  int tasks_moved = 0;
  /// Repair cost: search node-visits for search policies, |V| for HEFT's
  /// full reschedule.
  int repair_steps = 0;
  /// repair_steps / |V| - below 1.0 means the repair was cheaper than a full
  /// reschedule (the paper's incremental-repair claim).
  double repair_fraction = 0.0;
};

struct RobustnessReport {
  std::vector<FaultEvent> faults;  ///< the injected plan, time-ordered
  std::vector<RepairOutcome> rows;
};

/// The fault-recovery protocol, measuring the paper's adaptivity claim. The
/// plan runs as a two-epoch churn script (evaluate_churn's protocol, minus
/// its "static" row) over a universe that also holds the plan's joined
/// devices: epoch 0 is `n` with those devices down, epoch 1 the network after
/// every event (post_fault_network()).
/// 1. each placer produces a fault-free placement on epoch 0 - search
///    policies run baseline_steps_factor * |V| seeded search steps, HEFT
///    schedules once - and its fault-free makespan is recorded;
/// 2. that placement is replayed under `plan` with simulate_with_faults(),
///    yielding the degraded makespan or the stranded-task count;
/// 3. on epoch 1 each search policy repairs incrementally: stranded tasks
///    are patched onto their fastest feasible surviving device and the
///    policy resumes search from that damaged placement
///    (PlacementSearchEnv::rebase) for a small budget, while HEFT
///    reschedules from scratch;
/// 4. recovery makespan, degradation ratio, and repair cost are reported.
///
/// `placers` maps display names to search policies (nullptr entries are
/// skipped); a "HEFT" row is always appended. A plan may take every device
/// down: each row is then unrecoverable.
RobustnessReport evaluate_robustness(
    const TaskGraph& g, const DeviceNetwork& n, const LatencyModel& lat,
    const FaultPlan& plan,
    const std::vector<std::pair<std::string, SearchPolicy*>>& placers,
    const RobustnessOptions& opt = {});

/// Fixed-width text rendering of a report (CLI / bench output).
std::string format_report(const RobustnessReport& report);

// ---------------------------------------------------------------------------
// Continuous churn: the dynamic-conditions protocol. Where the fault protocol
// above injects one plan and repairs once, churn streams a whole scenario -
// epochs of devices joining, leaving, and links drifting (e.g. from the
// grid-mobility simulator, casestudy/churn.hpp) - and policies re-place
// online after every epoch.

/// One epoch of a churn scenario: the state of a fixed device *universe* at
/// `time`. `up[k]` says whether universe device k currently participates;
/// `network` carries the whole universe (links touching down devices are
/// ignored). The universe - device count, ids, capabilities - never changes
/// across epochs; only membership and link quality do.
struct ChurnEpoch {
  double time = 0.0;
  std::vector<char> up;
  DeviceNetwork network;
};

/// A deterministic churn scenario: epochs in non-decreasing time order over
/// one device universe.
struct ChurnScript {
  std::vector<ChurnEpoch> epochs;
};

/// Throws std::invalid_argument (naming the epoch and field) when the script
/// is malformed: no epochs, inconsistent universe size, non-finite or
/// decreasing times, or an epoch with no device up.
void validate_churn_script(const ChurnScript& script);

struct ChurnOptions {
  std::uint64_t seed = 1;
  /// Epoch-0 search budget = factor * |V| (the paper's 2|V|).
  int baseline_steps_factor = 2;
  /// Budget of an epoch whose churn stranded tasks; 0 = 2 * stranded count,
  /// at least 2.
  int repair_budget = 0;
  /// Budget of an epoch with no stranding (links drifted, nothing broke);
  /// 0 = max(2, |V| / 2).
  int drift_budget = 0;
  /// Worker threads over placer rows; any value yields the same report.
  int threads = 1;
};

/// One placer's state at one epoch.
struct ChurnCell {
  /// Makespan of the *inherited* placement on this epoch's network (infinity
  /// when tasks were stranded or the epoch is unrecoverable). For epoch 0:
  /// the seeded initial placement.
  double makespan_before = 0.0;
  /// Makespan after this epoch's online re-placement.
  double makespan_after = 0.0;
  int stranded = 0;      ///< tasks whose device left this epoch
  int moved = 0;         ///< tasks moved by the re-placement
  int repair_steps = 0;  ///< search steps spent this epoch
  /// False when the epoch's surviving devices cannot host the graph; the
  /// placer carries its previous placement into the next epoch.
  bool recoverable = true;
  /// The placement held after this epoch, in universe device ids (empty when
  /// the epoch is unrecoverable).
  Placement placement;
};

struct ChurnRow {
  std::string placer;
  std::vector<ChurnCell> cells;  ///< one per epoch
  double mean_makespan = 0.0;    ///< mean makespan_after over recoverable epochs
  int disruptions = 0;           ///< epochs (t >= 1) with stranded tasks
  int total_stranded = 0;
  /// Recovery latency in search steps: mean repair_steps over disrupted
  /// epochs (0 when nothing was ever disrupted). Deterministic by design -
  /// wall-clock recovery time would not be seed-reproducible.
  double mean_recovery_steps = 0.0;
};

struct ChurnReport {
  int num_epochs = 0;
  std::vector<ChurnRow> rows;
};

/// The continuous-churn protocol. Per placer row:
/// - epoch 0: seeded random initial placement, baseline_steps_factor * |V|
///   search steps on the epoch-0 network;
/// - every later epoch: the inherited placement is remapped onto the epoch's
///   surviving devices (tasks on departed devices count as stranded and are
///   patched onto their fastest feasible device), then the policy resumes
///   search warm via PlacementSearchEnv::rebase for the repair / drift
///   budget.
/// Two reference rows are appended: "static" (the epoch-0 HEFT placement
/// frozen forever - stranded epochs stay broken) and "HEFT" (full |V|-task
/// reschedule every epoch). Deterministic: seed-reproducible and identical
/// for every opt.threads value.
ChurnReport evaluate_churn(
    const TaskGraph& g, const ChurnScript& script, const LatencyModel& lat,
    const std::vector<std::pair<std::string, SearchPolicy*>>& placers,
    const ChurnOptions& opt = {});

/// Fixed-width makespan-over-time table plus per-placer summary.
std::string format_churn_report(const ChurnReport& report);

}  // namespace giph::eval
