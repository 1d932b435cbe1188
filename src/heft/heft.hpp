#pragma once

#include <vector>

#include "graph/placement.hpp"
#include "sim/schedule_index.hpp"
#include "sim/simulator.hpp"

namespace giph {

/// Output of the HEFT scheduler.
struct HeftResult {
  Placement placement;              ///< the task -> device mapping
  std::vector<TaskTiming> timing;   ///< HEFT's own (insertion-based) schedule
  double heft_makespan = 0.0;       ///< makespan of HEFT's internal schedule
  std::vector<double> upward_rank;  ///< rank_u per task (priority)
};

/// Heterogeneous Earliest Finish Time (Topcuoglu et al. 2002): tasks are
/// prioritized by upward rank computed from averaged computation and
/// communication costs, then assigned in priority order to the feasible
/// device minimizing the earliest finish time under an insertion-based
/// scheduling policy. Placement constraints restrict both the rank averages
/// and the candidate devices. Throws std::invalid_argument naming a task that
/// no device can run (a pin past the last device, or a hardware requirement
/// no device meets).
HeftResult heft_schedule(const TaskGraph& g, const DeviceNetwork& n, const LatencyModel& lat);

/// Upward ranks only: rank_u(i) = w-bar_i + max_j (c-bar_ij + rank_u(j)) over
/// children j, with averaged costs.
std::vector<double> upward_ranks(const TaskGraph& g, const DeviceNetwork& n,
                                 const LatencyModel& lat);

/// EFT device selection for search-based policies (Random-task-EFT and
/// GiPH-task-EFT): the feasible device minimizing est(v, d) + w(v, d), where
/// est comes from the parents' finish times of the current FIFO schedule.
int eft_select_device(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                      const LatencyModel& lat, const Schedule& sched, int v);

/// Indexed variant: answers each est query through `index` (which must be
/// built from (`sched`, `p`), e.g. PlacementSearchEnv::schedule_index()).
/// Selects exactly the same device as the unindexed overload.
int eft_select_device(const TaskGraph& g, const DeviceNetwork& n, const Placement& p,
                      const LatencyModel& lat, const Schedule& sched,
                      const ScheduleIndex& index, int v);

}  // namespace giph
