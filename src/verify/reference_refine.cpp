#include "verify/reference_refine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace giph {

double reference_refine(const HierarchicalPlacer& placer, const TaskGraph& g,
                        const DeviceNetwork& n, const LatencyModel& lat,
                        Placement& fine, HierarchicalStats* stats) {
  const HierarchicalOptions& opt = placer.options();
  const GraphPartition& part = placer.partition();
  PlacementSearchEnv env(g, n, lat, makespan_objective(lat), fine,
                         placer.fine_normalizer());
  if (stats) stats->expanded_objective = env.objective();
  if (opt.refine_rounds == 0 || g.num_tasks() == 0) {
    if (stats) stats->refined_objective = env.objective();
    return env.objective();
  }

  EstSweepWorkspace sweep;
  const std::vector<double>& computes = compute_sweep(g, n, lat, sweep);
  const int nd = n.num_devices();
  std::vector<std::pair<double, int>> cand;
  for (int round = 0; round < opt.refine_rounds; ++round) {
    bool any_kept = false;
    for (int c = 0; c < part.num_clusters(); ++c) {
      const std::vector<int>& members = part.members[c];
      est_sweep_subset(env.schedule(), g, n, env.placement(), lat, members, sweep);
      for (int v : members) {
        const int cur = env.placement().device_of(v);
        const double* row = sweep.est.data() + static_cast<std::size_t>(v) * nd;
        const double* wrow = computes.data() + static_cast<std::size_t>(v) * nd;
        cand.clear();
        for (int d : env.feasible()[v]) {
          if (d != cur) cand.emplace_back(row[d] + wrow[d], d);
        }
        const int k = std::min<int>(opt.refine_topk, static_cast<int>(cand.size()));
        std::partial_sort(cand.begin(), cand.begin() + k, cand.end());
        for (int i = 0; i < k; ++i) {
          const double prev = env.objective();
          env.apply(SearchAction{v, cand[i].second});
          if (stats) ++stats->refine_moves_tried;
          if (env.objective() < prev) {
            if (stats) ++stats->refine_moves_kept;
            any_kept = true;
            break;
          }
          env.apply(SearchAction{v, cur});
        }
      }
    }
    if (!any_kept) break;
  }
  fine = env.placement();
  if (stats) stats->refined_objective = env.objective();
  return env.objective();
}

}  // namespace giph
