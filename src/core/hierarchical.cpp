#include "core/hierarchical.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "heft/heft.hpp"
#include "sim/metrics.hpp"

namespace giph {

HierarchicalPlacer::HierarchicalPlacer(const TaskGraph& g, const DeviceNetwork& n,
                                       const LatencyModel& lat,
                                       const HierarchicalOptions& opt)
    : g_(&g), n_(&n), lat_(&lat), opt_(opt) {
  if (opt.coarse_steps_factor < 0) {
    throw std::invalid_argument("HierarchicalPlacer: coarse_steps_factor must be >= 0");
  }
  if (opt.refine_rounds < 0) {
    throw std::invalid_argument("HierarchicalPlacer: refine_rounds must be >= 0");
  }
  if (opt.refine_topk < 1) {
    throw std::invalid_argument("HierarchicalPlacer: refine_topk must be >= 1");
  }
  part_ = partition_tasks(g, n, opt.partition);
  norm_ = g.num_tasks() > 0 ? slr_denominator(g, n, lat) : 1.0;
}

Placement HierarchicalPlacer::place_clusters(SearchPolicy& policy, std::mt19937_64& rng,
                                             double* coarse_objective) {
  if (part_.num_clusters() == 0) {
    if (coarse_objective) *coarse_objective = 0.0;
    return Placement(0);
  }
  const HeftResult warm = heft_schedule(part_.coarse, *n_, *lat_);
  const double cnorm = slr_denominator(part_.coarse, *n_, *lat_);
  PlacementSearchEnv env(part_.coarse, *n_, *lat_, makespan_objective(*lat_),
                         warm.placement, cnorm);
  const int steps = opt_.coarse_steps_factor * part_.num_clusters();
  if (steps > 0) run_search(policy, env, steps, rng, opt_.coarse_greedy);
  if (coarse_objective) *coarse_objective = env.best_objective();
  return env.best_placement();
}

double HierarchicalPlacer::refine(Placement& fine, HierarchicalStats* stats) {
  PlacementSearchEnv env(*g_, *n_, *lat_, makespan_objective(*lat_), fine, norm_);
  if (stats) stats->expanded_objective = env.objective();
  if (opt_.refine_rounds == 0 || g_->num_tasks() == 0) {
    if (stats) stats->refined_objective = env.objective();
    return env.objective();
  }

  thread_local EstSweepWorkspace sweep;
  const std::vector<double>& computes = compute_sweep(*g_, *n_, *lat_, sweep);
  const int nd = n_->num_devices();
  std::vector<std::pair<double, int>> cand;
  for (int round = 0; round < opt_.refine_rounds; ++round) {
    bool any_kept = false;
    for (int c = 0; c < part_.num_clusters(); ++c) {
      const std::vector<int>& members = part_.members[c];
      // One subset sweep per cluster ranks this cluster's candidate devices;
      // it may go stale after a kept move, but staleness only affects the
      // candidate ORDER — every acceptance decision below uses the exact
      // objective from try_move().
      est_sweep_subset(env.schedule(), *g_, *n_, env.placement(), *lat_, members, sweep);
      for (int v : members) {
        const int cur = env.placement().device_of(v);
        const double* row = sweep.est.data() + static_cast<std::size_t>(v) * nd;
        const double* wrow = computes.data() + static_cast<std::size_t>(v) * nd;
        cand.clear();
        for (int d : env.feasible()[v]) {
          if (d != cur) cand.emplace_back(row[d] + wrow[d], d);
        }
        const int k = std::min<int>(opt_.refine_topk, static_cast<int>(cand.size()));
        std::partial_sort(cand.begin(), cand.begin() + k, cand.end());
        for (int i = 0; i < k; ++i) {
          // One simulation per try: a rejected trial is simply dropped, so
          // the incumbent schedule and objective are never touched by it.
          const double tried = env.try_move(SearchAction{v, cand[i].second});
          if (stats) ++stats->refine_moves_tried;
          if (tried < env.objective()) {
            env.commit();
            if (stats) ++stats->refine_moves_kept;
            any_kept = true;
            break;
          }
        }
      }
    }
    if (!any_kept) break;
  }
  fine = env.placement();
  if (stats) stats->refined_objective = env.objective();
  return env.objective();
}

Placement HierarchicalPlacer::place(SearchPolicy& policy, std::mt19937_64& rng,
                                    HierarchicalStats* stats) {
  HierarchicalStats s;
  s.num_clusters = part_.num_clusters();
  if (g_->num_tasks() == 0) {
    if (stats) *stats = s;
    return Placement(0);
  }
  const Placement coarse = place_clusters(policy, rng, &s.coarse_objective);
  Placement fine = expand(coarse);
  refine(fine, &s);
  if (stats) *stats = s;
  return fine;
}

double HierarchicalPlacer::objective_of(const Placement& fine) const {
  if (g_->num_tasks() == 0) return 0.0;
  // Same guard as PlacementSearchEnv: non-positive normalizers fall back to 1.
  const double norm = norm_ > 0.0 ? norm_ : 1.0;
  return evaluate_objective(makespan_objective(*lat_), *g_, *n_, fine, *lat_) / norm;
}

}  // namespace giph
