#pragma once

#include <cstdint>
#include <random>

#include "sim/metrics.hpp"
#include "sim/schedule_index.hpp"
#include "sim/simulator.hpp"

namespace giph {

/// An action of the placement-search MDP: relocate `task` to `device`
/// (Section 4.1). Feasible iff device is in the task's feasible set.
struct SearchAction {
  int task = -1;
  int device = -1;
};

/// The placement-search MDP for one problem instance (G, N): states are
/// feasible placements, actions relocate one task, the reward is the
/// objective improvement rho(s_t) - rho(s_{t+1}).
///
/// The environment also maintains the expected (noise-free) schedule of the
/// current placement, which feeds the gpNet start-time-potential feature, and
/// tracks the best placement seen so far (search policies report
/// best-so-far).
///
/// When `normalizer` > 0, objective values are divided by it; passing the SLR
/// denominator makes objective() the SLR directly and keeps rewards on a
/// comparable scale across problem instances.
class PlacementSearchEnv {
 public:
  PlacementSearchEnv(const TaskGraph& g, const DeviceNetwork& n, const LatencyModel& lat,
                     ScheduleObjective objective, Placement initial,
                     double normalizer = 0.0);

  const TaskGraph& graph() const noexcept { return *g_; }
  const DeviceNetwork& network() const noexcept { return *n_; }
  const LatencyModel& latency() const noexcept { return *lat_; }
  const std::vector<std::vector<int>>& feasible() const noexcept { return feasible_; }

  const Placement& placement() const noexcept { return current_; }
  const Schedule& schedule() const noexcept { return sched_; }

  /// Per-device EST index over schedule(), built lazily on first access after
  /// each state change (feature construction batches ESTs through est_sweep
  /// and never asks; EFT device selection still does). Feeds the O(log V)
  /// earliest_start_on_queued overload.
  const ScheduleIndex& schedule_index() const {
    if (index_dirty_) {
      index_.build(sched_, current_, n_->num_devices());
      index_dirty_ = false;
    }
    return index_;
  }

  double objective() const noexcept { return obj_; }

  /// Number of noise-free simulations this environment has run (construction,
  /// try_move, reset, rebase). The core invariant is one per try_move(), so
  /// one per apply(); objectives that deliberately re-simulate (noisy
  /// makespan) are not counted here — use giph::simulation_count() for the
  /// process-wide total.
  std::uint64_t simulations_run() const noexcept { return sims_; }

  /// Of simulations_run(), how many were incremental delta replays
  /// (try_move() routes one-task moves through simulate_delta). The remainder
  /// ran the full event loop: construction / reset / rebase / apply_placement
  /// refreshes plus delta fallbacks.
  std::uint64_t delta_simulations_run() const noexcept { return delta_sims_; }

  /// try_move() calls whose simulate_delta fell back to a full simulation.
  std::uint64_t delta_fallbacks() const noexcept { return delta_fallbacks_; }

  const Placement& best_placement() const noexcept { return best_; }
  double best_objective() const noexcept { return best_obj_; }

  /// Task moved by the previous apply(), or -1 (used by the action mask).
  int last_moved_task() const noexcept { return last_moved_; }

  int steps_taken() const noexcept { return steps_; }

  /// Applies a feasible action and returns the reward
  /// rho(s_t) - rho(s_{t+1}) (positive = improvement): try_move(a), then
  /// commit(). Throws on infeasible actions.
  double apply(const SearchAction& a);

  /// Evaluates a one-task move without taking it: checks `a` like apply(),
  /// replays the move from schedule() into a trial schedule and delta state
  /// (simulate_delta) and returns the objective the move would
  /// reach, bitwise what apply(a) leaves in objective(). The placement,
  /// schedule, objective, best-so-far record, steps_taken() and
  /// last_moved_task() are unchanged; only the simulation counters count the
  /// try. The trial stays pending until commit(), the next try_move() (even
  /// one that throws), or a state reset (apply_placement, reset_to_initial,
  /// rebase, reinit) drops it. A replay that throws damages only the trial.
  double try_move(const SearchAction& a);

  /// Takes the pending try without simulating: its schedule and delta state
  /// are swapped in, and the placement, objective, best-so-far record,
  /// steps_taken() and last_moved_task() advance as for any step. Returns the
  /// reward. Throws std::logic_error when no try is pending.
  double commit();

  /// Replaces the whole placement (used by the random-sampling baseline,
  /// which draws a fresh placement per step). Returns the reward.
  double apply_placement(Placement p);

  /// Restores the initial placement and clears per-episode state (used when a
  /// policy restarts its search, e.g. Placeto every |V| steps). The
  /// best-so-far record is kept.
  void reset_to_initial();

  /// Re-anchors the search on a changed device network and/or a damaged
  /// placement (the fault-recovery warm start): `n` becomes the environment's
  /// network, feasible sets are recomputed, `p` becomes both the current and
  /// the initial placement, and the best-so-far record and step counter are
  /// reset - the pre-fault best may no longer be feasible, so it must not be
  /// reported. The graph, objective, and normalizer are kept, which lets a
  /// trained agent resume search from the repaired state instead of starting
  /// a fresh episode from scratch. `n` must outlive the environment and keep
  /// the graph placeable; throws std::invalid_argument when `p` is infeasible
  /// on it.
  void rebase(const DeviceNetwork& n, Placement p);

  /// Same-network warm start (slowdowns / link degrades only).
  void rebase(Placement p) { rebase(*n_, std::move(p)); }

  /// Re-targets the environment at a new problem instance, reusing the
  /// already-allocated simulation workspace, schedule, and index buffers:
  /// the cheap per-episode reset that lets a long-lived environment (e.g. a
  /// rollout worker's) avoid reallocating per episode. Equivalent to
  /// constructing a fresh environment with the same arguments — simulation
  /// results are bitwise identical either way — except that the latency
  /// model is kept and simulations_run() keeps accumulating across reinits
  /// (steps_taken() resets). `g` and `n` must outlive the environment;
  /// throws std::invalid_argument when `initial` is infeasible.
  void reinit(const TaskGraph& g, const DeviceNetwork& n, ScheduleObjective objective,
              Placement initial, double normalizer = 0.0);

 private:
  void refresh();

  const TaskGraph* g_;
  const DeviceNetwork* n_;
  const LatencyModel* lat_;
  ScheduleObjective objective_;
  double normalizer_;
  std::vector<std::vector<int>> feasible_;

  Placement initial_;
  Placement current_;
  SimWorkspace ws_;
  Schedule sched_;
  DeltaSimState delta_;
  // The pending try: its move, schedule, delta state and objective. commit()
  // swaps the buffers with sched_ / delta_, so both pairs keep their capacity.
  SearchAction trial_move_;
  Schedule trial_sched_;
  DeltaSimState trial_delta_;
  double trial_obj_ = 0.0;
  bool trial_pending_ = false;
  mutable ScheduleIndex index_;
  mutable bool index_dirty_ = true;
  std::uint64_t sims_ = 0;
  std::uint64_t delta_sims_ = 0;
  std::uint64_t delta_fallbacks_ = 0;
  double obj_ = 0.0;
  Placement best_;
  double best_obj_ = 0.0;
  int last_moved_ = -1;
  int steps_ = 0;
};

}  // namespace giph
