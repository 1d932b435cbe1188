#pragma once

#include <cstdint>
#include <random>

#include "core/reinforce.hpp"
#include "core/search_env.hpp"
#include "gen/grouping.hpp"

namespace giph {

/// Knobs of the hierarchical placement tier (partition -> place -> refine;
/// DESIGN.md "Hierarchical placement").
struct HierarchicalOptions {
  PartitionOptions partition;
  /// Coarse search budget: steps = factor * num_clusters (0 = keep the HEFT
  /// warm start).
  int coarse_steps_factor = 2;
  /// Greedy coarse search (evaluation default); false samples the policy.
  bool coarse_greedy = true;
  /// Refinement sweeps over all clusters; each stops early when a full sweep
  /// keeps no move. 0 skips refinement (the expansion is returned as is).
  int refine_rounds = 2;
  /// EFT-ranked device candidates tried per task during refinement (>= 1).
  int refine_topk = 4;
};

/// Per-run observability of the three hierarchical stages. Objectives are
/// fine-instance SLR except coarse_objective, which is the SLR of the coarse
/// instance (its own denominator).
struct HierarchicalStats {
  int num_clusters = 0;
  double coarse_objective = 0.0;
  double expanded_objective = 0.0;  ///< fine SLR of the expanded placement
  double refined_objective = 0.0;   ///< fine SLR after refinement (<= expanded)
  std::int64_t refine_moves_tried = 0;
  std::int64_t refine_moves_kept = 0;
};

/// Hierarchical wrapper over PlacementSearchEnv for graphs far beyond the
/// policy's training scale: partition the fine graph into clusters
/// (partition_tasks), let the existing policy place the coarse cluster graph
/// unchanged — coarse nodes aggregate compute/bytes, so to the policy it is
/// just another problem instance — then expand and refine within clusters
/// while every other cluster's placement stays frozen.
///
/// Guarantees (test- and fuzz-enforced):
///  - the returned placement is feasible on (g, n);
///  - refine() never worsens the incumbent objective: every candidate move
///    is evaluated with PlacementSearchEnv::try_move (delta simulation,
///    bitwise-equal to full re-simulation) and committed only when it
///    strictly improves; a rejected trial is dropped without touching the
///    incumbent, so the objective is monotone non-increasing across
///    refinement and each try costs exactly one simulation;
///  - the whole run is a pure function of (g, n, lat, options, policy
///    parameters, rng state).
class HierarchicalPlacer {
 public:
  /// Partitions immediately (cost O(E log E)). `g`, `n`, `lat` must outlive
  /// the placer. Throws std::invalid_argument on bad options.
  HierarchicalPlacer(const TaskGraph& g, const DeviceNetwork& n, const LatencyModel& lat,
                     const HierarchicalOptions& opt);

  const GraphPartition& partition() const noexcept { return part_; }
  const HierarchicalOptions& options() const noexcept { return opt_; }
  /// SLR denominator of the fine instance (the normalizer of all fine
  /// objectives reported here).
  double fine_normalizer() const noexcept { return norm_; }

  /// Stage 1+2: HEFT warm start on the coarse graph, then `policy` searches
  /// it for coarse_steps_factor * num_clusters steps; returns the best
  /// coarse placement seen (never worse than the warm start).
  Placement place_clusters(SearchPolicy& policy, std::mt19937_64& rng,
                           double* coarse_objective = nullptr);

  /// Coarse placement -> fine placement (every task on its cluster's device).
  Placement expand(const Placement& coarse) const {
    return expand_placement(part_, coarse);
  }

  /// Stage 3: per-cluster hill-climb refinement of `fine` in place. For each
  /// cluster, each member task tries its refine_topk best feasible devices by
  /// EFT proxy (subset EST sweep + compute time); each try is one try_move()
  /// simulation, committed only when the exact objective strictly improves
  /// and otherwise dropped. One call runs exactly refine_moves_tried + 1
  /// simulations (the +1 is the initial one). Returns the final fine SLR.
  double refine(Placement& fine, HierarchicalStats* stats = nullptr);

  /// All three stages; fills `stats` when non-null.
  Placement place(SearchPolicy& policy, std::mt19937_64& rng,
                  HierarchicalStats* stats = nullptr);

  /// Fine SLR of an arbitrary feasible placement (one full simulation);
  /// exactly the value refine() reports for the same placement.
  double objective_of(const Placement& fine) const;

 private:
  const TaskGraph* g_;
  const DeviceNetwork* n_;
  const LatencyModel* lat_;
  HierarchicalOptions opt_;
  GraphPartition part_;
  double norm_ = 1.0;
};

}  // namespace giph
