// Differential test of HierarchicalPlacer::refine (try_move, commit only on
// improvement) against reference_refine (apply every candidate, apply back
// the rejected ones): same placement bytes, objective and move counts, with
// exactly one simulation per try.

#include <gtest/gtest.h>

#include <random>

#include "core/hierarchical.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "testutil.hpp"
#include "verify/reference_refine.hpp"

namespace giph {
namespace {

using testutil::bytes_equal;

const DefaultLatencyModel kLat;

struct RefineCase {
  TaskGraph g;
  DeviceNetwork n;
  HierarchicalOptions opt;
  bool pinned = false;
};

RefineCase make_case(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  RefineCase c;
  TaskGraphParams gp;
  gp.num_tasks = 20 + static_cast<int>(rng() % 41);
  gp.alpha = seed % 2 == 0 ? 0.4 : 1.2;
  gp.p_connect = 0.1;
  gp.num_hw_kinds = 3;
  gp.p_task_requires = 0.3;
  NetworkParams np;
  np.num_devices = 3 + static_cast<int>(rng() % 6);
  np.num_hw_kinds = 3;
  np.p_hw_support = 0.7;
  c.g = generate_task_graph(gp, rng);
  c.n = generate_device_network(np, rng);
  ensure_feasible(c.g, c.n, rng);
  // Pins on every other case: pinned tasks on different devices can never
  // share a cluster, so a small cluster target gets forced extra cuts.
  if (seed % 2 == 1) {
    const auto sets = feasible_sets(c.g, c.n);
    for (int v = 0; v < c.g.num_tasks(); ++v) {
      if (rng() % 5 == 0) {
        c.g.task(v).pinned = sets[v][rng() % sets[v].size()];
        c.pinned = true;
      }
    }
  }
  c.opt.partition.num_clusters = seed % 3 == 0 ? 2 : 3 + static_cast<int>(rng() % 6);
  c.opt.refine_topk = seed % 2 == 0 ? 1 : 4;
  c.opt.refine_rounds = 1 + static_cast<int>(seed % 3);
  return c;
}

TEST(RefineReference, TryCommitRefineMatchesApplyRevertReference) {
  int with_pins = 0, with_forced_cuts = 0, with_rejects = 0, with_kept = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const RefineCase c = make_case(seed);
    HierarchicalPlacer placer(c.g, c.n, kLat, c.opt);
    const GraphPartition& part = placer.partition();
    with_pins += c.pinned ? 1 : 0;
    with_forced_cuts += part.num_clusters() > c.opt.partition.num_clusters ? 1 : 0;

    std::mt19937_64 rng(1000 + seed);
    const Placement expanded = placer.expand(random_placement(part.coarse, c.n, rng));
    ASSERT_TRUE(is_feasible(c.g, c.n, expanded));

    Placement fine = expanded;
    HierarchicalStats st;
    const std::uint64_t sims0 = simulation_count();
    const double obj = placer.refine(fine, &st);
    const std::uint64_t sims = simulation_count() - sims0;

    Placement ref = expanded;
    HierarchicalStats rst;
    const std::uint64_t ref0 = simulation_count();
    const double ref_obj = reference_refine(placer, c.g, c.n, kLat, ref, &rst);
    const std::uint64_t ref_sims = simulation_count() - ref0;

    EXPECT_EQ(fine.assignments(), ref.assignments()) << "seed " << seed;
    EXPECT_TRUE(bytes_equal(obj, ref_obj)) << "seed " << seed;
    EXPECT_TRUE(bytes_equal(st.refined_objective, rst.refined_objective));
    EXPECT_TRUE(bytes_equal(st.expanded_objective, rst.expanded_objective));
    EXPECT_EQ(st.refine_moves_tried, rst.refine_moves_tried) << "seed " << seed;
    EXPECT_EQ(st.refine_moves_kept, rst.refine_moves_kept) << "seed " << seed;
    // One simulation per try plus the initial one; the reference pays a
    // second simulation for every rejected try.
    const auto tried = static_cast<std::uint64_t>(st.refine_moves_tried);
    const auto kept = static_cast<std::uint64_t>(st.refine_moves_kept);
    EXPECT_EQ(sims, tried + 1) << "seed " << seed;
    EXPECT_EQ(ref_sims, 2 * tried - kept + 1) << "seed " << seed;
    EXPECT_EQ(placer.objective_of(fine), st.refined_objective);
    with_rejects += tried > kept ? 1 : 0;
    with_kept += kept > 0 ? 1 : 0;
  }
  // The cases cover what they are meant to cover.
  EXPECT_GT(with_pins, 0);
  EXPECT_GT(with_forced_cuts, 0);
  EXPECT_GT(with_rejects, 0);
  EXPECT_GT(with_kept, 0);
}

}  // namespace
}  // namespace giph
