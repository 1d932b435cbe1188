#pragma once

#include "core/hierarchical.hpp"

namespace giph {

/// Reference refinement: HierarchicalPlacer::refine's per-cluster hill-climb
/// written the direct way. Every candidate move is taken with
/// PlacementSearchEnv::apply and, unless it strictly improves the objective,
/// undone by a second apply back to the task's previous device. That costs
/// two simulations per rejected try where refine() costs one (try_move, then
/// commit only on improvement); the decisions are the same because the
/// revert restores the previous placement, whose schedule is a pure function
/// of it.
///
/// The differential baseline of refine(): for the same placer and input
/// placement both return the same placement bytes, refined_objective,
/// refine_moves_tried and refine_moves_kept. `g`, `n` and `lat` must be the
/// ones `placer` was built with. Fills `stats` like refine() does.
double reference_refine(const HierarchicalPlacer& placer, const TaskGraph& g,
                        const DeviceNetwork& n, const LatencyModel& lat,
                        Placement& fine, HierarchicalStats* stats = nullptr);

}  // namespace giph
