#include "core/search_env.hpp"

#include <algorithm>
#include <stdexcept>

namespace giph {

PlacementSearchEnv::PlacementSearchEnv(const TaskGraph& g, const DeviceNetwork& n,
                                       const LatencyModel& lat,
                                       ScheduleObjective objective, Placement initial,
                                       double normalizer)
    : g_(&g), n_(&n), lat_(&lat) {
  reinit(g, n, std::move(objective), std::move(initial), normalizer);
}

void PlacementSearchEnv::reinit(const TaskGraph& g, const DeviceNetwork& n,
                                ScheduleObjective objective, Placement initial,
                                double normalizer) {
  if (!is_feasible(g, n, initial)) {
    throw std::invalid_argument("PlacementSearchEnv: infeasible initial placement");
  }
  g_ = &g;
  n_ = &n;
  objective_ = std::move(objective);
  normalizer_ = normalizer > 0.0 ? normalizer : 1.0;
  feasible_ = feasible_sets(g, n);
  initial_ = std::move(initial);
  current_ = initial_;
  last_moved_ = -1;
  steps_ = 0;
  refresh();
  best_ = current_;
  best_obj_ = obj_;
}

void PlacementSearchEnv::refresh() {
  // The single simulation per state transition: the objective consumes
  // sched_ instead of re-simulating, and the workspace makes the call
  // allocation-free in steady state. Recording delta_ lets the next one-task
  // move (try_move) take the incremental path.
  simulate_into(*g_, *n_, current_, *lat_, ws_, sched_, delta_);
  ++sims_;
  index_dirty_ = true;
  trial_pending_ = false;
  obj_ = objective_(*g_, *n_, current_, sched_) / normalizer_;
}

double PlacementSearchEnv::apply(const SearchAction& a) {
  try_move(a);
  return commit();
}

double PlacementSearchEnv::try_move(const SearchAction& a) {
  trial_pending_ = false;
  if (a.task < 0 || a.task >= g_->num_tasks()) {
    throw std::invalid_argument("PlacementSearchEnv::try_move: bad task");
  }
  const auto& devs = feasible_[a.task];
  if (std::find(devs.begin(), devs.end(), a.device) == devs.end()) {
    throw std::invalid_argument("PlacementSearchEnv::try_move: infeasible device");
  }
  // One-task move: replay it incrementally from sched_ and delta_ (bitwise
  // identical to a full simulation) into the trial buffers, which reuse their
  // capacity. current_ carries the move only while the trial is simulated and
  // scored.
  const int from = current_.device_of(a.task);
  current_.set(a.task, a.device);
  try {
    const DeltaSimResult dr = simulate_delta(*g_, *n_, current_, a.task, *lat_, ws_,
                                             sched_, delta_, trial_sched_, trial_delta_);
    ++sims_;
    if (dr == DeltaSimResult::kReplayed) {
      ++delta_sims_;
    } else {
      ++delta_fallbacks_;
    }
    trial_obj_ = objective_(*g_, *n_, current_, trial_sched_) / normalizer_;
  } catch (...) {
    current_.set(a.task, from);
    throw;
  }
  current_.set(a.task, from);
  trial_move_ = a;
  trial_pending_ = true;
  return trial_obj_;
}

double PlacementSearchEnv::commit() {
  if (!trial_pending_) {
    throw std::logic_error("PlacementSearchEnv::commit: no pending try_move");
  }
  trial_pending_ = false;
  const double before = obj_;
  current_.set(trial_move_.task, trial_move_.device);
  std::swap(sched_, trial_sched_);
  std::swap(delta_, trial_delta_);
  index_dirty_ = true;
  obj_ = trial_obj_;
  last_moved_ = trial_move_.task;
  ++steps_;
  if (obj_ < best_obj_) {
    best_obj_ = obj_;
    best_ = current_;
  }
  return before - obj_;
}

double PlacementSearchEnv::apply_placement(Placement p) {
  if (!is_feasible(*g_, *n_, p)) {
    throw std::invalid_argument("PlacementSearchEnv::apply_placement: infeasible");
  }
  const double before = obj_;
  current_ = std::move(p);
  refresh();
  last_moved_ = -1;
  ++steps_;
  if (obj_ < best_obj_) {
    best_obj_ = obj_;
    best_ = current_;
  }
  return before - obj_;
}

void PlacementSearchEnv::reset_to_initial() {
  current_ = initial_;
  last_moved_ = -1;
  refresh();
}

void PlacementSearchEnv::rebase(const DeviceNetwork& n, Placement p) {
  if (!is_feasible(*g_, n, p)) {
    throw std::invalid_argument("PlacementSearchEnv::rebase: infeasible placement");
  }
  n_ = &n;
  feasible_ = feasible_sets(*g_, n);
  initial_ = std::move(p);
  current_ = initial_;
  last_moved_ = -1;
  steps_ = 0;
  refresh();
  best_ = current_;
  best_obj_ = obj_;
}

}  // namespace giph
