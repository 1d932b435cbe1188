// Tests of the scale tier (DESIGN.md "Hierarchical placement"): the DAG
// partitioner's invariants, expansion, the HierarchicalPlacer's never-worsen
// refinement contract, the sparse gpNet's dense-equivalence at k >= D, and
// the subset EST sweep's bitwise agreement with the full sweep.

#include "core/hierarchical.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/giph_agent.hpp"
#include "core/gpnet.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/grouping.hpp"
#include "gen/task_graph_gen.hpp"
#include "graph/topology.hpp"
#include "sim/schedule_index.hpp"
#include "sim/simulator.hpp"
#include "util/parallel_for.hpp"

namespace giph {
namespace {

const DefaultLatencyModel kLat;

struct Instance {
  TaskGraph graph;
  DeviceNetwork network;
};

Instance make_instance(int tasks, int devices, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TaskGraphParams gp;
  gp.num_tasks = tasks;
  gp.p_connect = 0.2;
  gp.num_hw_kinds = 3;
  gp.p_task_requires = 0.3;
  NetworkParams np;
  np.num_devices = devices;
  np.num_hw_kinds = 3;
  np.p_hw_support = 0.7;
  Instance in;
  in.graph = generate_task_graph(gp, rng);
  in.network = generate_device_network(np, rng);
  ensure_feasible(in.graph, in.network, rng);
  return in;
}

void expect_valid_partition(const TaskGraph& g, const GraphPartition& part) {
  const int nt = g.num_tasks();
  ASSERT_EQ(static_cast<int>(part.cluster_of.size()), nt);
  ASSERT_EQ(static_cast<int>(part.members.size()), part.num_clusters());
  std::vector<int> seen(nt, 0);
  for (int c = 0; c < part.num_clusters(); ++c) {
    int prev = -1;
    for (int v : part.members[c]) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, nt);
      EXPECT_GT(v, prev) << "member list of cluster " << c << " not ascending";
      prev = v;
      EXPECT_EQ(part.cluster_of[v], c);
      ++seen[v];
    }
  }
  for (int v = 0; v < nt; ++v) {
    EXPECT_EQ(seen[v], 1) << "task " << v << " not in exactly one cluster";
  }
  EXPECT_TRUE(part.coarse.is_dag());
  EXPECT_NEAR(part.coarse.total_compute(), g.total_compute(),
              1e-9 * std::max(1.0, g.total_compute()));
  EXPECT_NEAR(part.coarse.total_bytes() + part.internal_bytes, g.total_bytes(),
              1e-9 * std::max(1.0, g.total_bytes()));
}

TEST(Partition, InvariantsOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance in = make_instance(40, 6, seed);
    PartitionOptions opt;
    opt.num_clusters = 1 + static_cast<int>(seed % 7);
    const GraphPartition part = partition_tasks(in.graph, in.network, opt);
    expect_valid_partition(in.graph, part);
    // The fine instance is feasible, so the coarse one must be too.
    EXPECT_NO_THROW((void)feasible_sets(part.coarse, in.network));
  }
}

TEST(Partition, ChainCutsIntoBalancedIntervals) {
  TaskGraph g;
  for (int i = 0; i < 8; ++i) g.add_task(Task{.compute = 1.0});
  for (int i = 0; i + 1 < 8; ++i) g.add_edge(i, i + 1, 10.0);
  std::mt19937_64 rng(1);
  DeviceNetwork n = generate_device_network(NetworkParams{.num_devices = 3}, rng);
  PartitionOptions opt;
  opt.num_clusters = 4;
  const GraphPartition part = partition_tasks(g, n, opt);
  expect_valid_partition(g, part);
  EXPECT_EQ(part.num_clusters(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(static_cast<int>(part.members[c].size()), 2);
    EXPECT_DOUBLE_EQ(part.coarse.task(c).compute, 2.0);
  }
  // A chain's cross-cluster edges point from cluster c to c + 1.
  for (const auto& e : part.coarse.edges()) EXPECT_EQ(e.dst, e.src + 1);
}

TEST(Partition, ConflictingPinsForceACut) {
  // Two tasks pinned to different devices can never share a cluster, even
  // with num_clusters = 1.
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .pinned = 0});
  g.add_task(Task{.compute = 1.0, .pinned = 1});
  g.add_edge(0, 1, 5.0);
  std::mt19937_64 rng(2);
  DeviceNetwork n = generate_device_network(NetworkParams{.num_devices = 2}, rng);
  PartitionOptions opt;
  opt.num_clusters = 1;
  const GraphPartition part = partition_tasks(g, n, opt);
  expect_valid_partition(g, part);
  ASSERT_EQ(part.num_clusters(), 2);
  EXPECT_NE(part.cluster_of[0], part.cluster_of[1]);
  EXPECT_EQ(part.coarse.task(part.cluster_of[0]).pinned, 0);
  EXPECT_EQ(part.coarse.task(part.cluster_of[1]).pinned, 1);
}

TEST(Partition, InfeasibleHwUnionForcesACut) {
  // Device 0 supports kind 0 only, device 1 kind 1 only: a merged cluster
  // requiring both kinds would be unplaceable, so the partitioner must cut.
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .requires_hw = 0b01});
  g.add_task(Task{.compute = 1.0, .requires_hw = 0b10});
  g.add_edge(0, 1, 5.0);
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0, .supports_hw = 0b01});
  n.add_device(Device{.speed = 1.0, .supports_hw = 0b10});
  n.set_symmetric_link(0, 1, 10.0, 0.1);
  PartitionOptions opt;
  opt.num_clusters = 1;
  const GraphPartition part = partition_tasks(g, n, opt);
  expect_valid_partition(g, part);
  ASSERT_EQ(part.num_clusters(), 2);
  EXPECT_NO_THROW((void)feasible_sets(part.coarse, n));
}

TEST(Partition, ClusterCountClampedToTasks) {
  const Instance in = make_instance(5, 4, 3);
  PartitionOptions opt;
  opt.num_clusters = 50;
  const GraphPartition part = partition_tasks(in.graph, in.network, opt);
  expect_valid_partition(in.graph, part);
  EXPECT_EQ(part.num_clusters(), 5);
}

TEST(Partition, InvalidOptionsThrow) {
  const Instance in = make_instance(4, 2, 4);
  PartitionOptions opt;
  opt.num_clusters = 0;
  EXPECT_THROW(partition_tasks(in.graph, in.network, opt), std::invalid_argument);
  opt.num_clusters = 2;
  opt.balance = 0.5;
  EXPECT_THROW(partition_tasks(in.graph, in.network, opt), std::invalid_argument);
}

TEST(Partition, DeterministicAcrossRunsAndThreadCounts) {
  const Instance in = make_instance(60, 8, 5);
  PartitionOptions opt;
  opt.num_clusters = 7;
  const GraphPartition ref = partition_tasks(in.graph, in.network, opt);
  // Repeat runs are identical.
  EXPECT_EQ(partition_tasks(in.graph, in.network, opt).cluster_of, ref.cluster_of);
  // And so are concurrent runs at any worker count: the partitioner is a pure
  // function of (g, n, opt) with no hidden global state.
  for (const int threads : {1, 2, 8}) {
    std::vector<GraphPartition> parts(8);
    util::parallel_for(8, threads, [&](int i) {
      parts[i] = partition_tasks(in.graph, in.network, opt);
    });
    for (const auto& p : parts) {
      EXPECT_EQ(p.cluster_of, ref.cluster_of);
      EXPECT_EQ(p.coarse.num_edges(), ref.coarse.num_edges());
    }
  }
}

TEST(Partition, ExpandIsConstantOnClustersAndFeasible) {
  const Instance in = make_instance(30, 5, 6);
  PartitionOptions opt;
  opt.num_clusters = 5;
  const GraphPartition part = partition_tasks(in.graph, in.network, opt);
  std::mt19937_64 rng(7);
  const Placement coarse = random_placement(part.coarse, in.network, rng);
  const Placement fine = expand_placement(part, coarse);
  EXPECT_TRUE(is_feasible(in.graph, in.network, fine));
  for (int v = 0; v < in.graph.num_tasks(); ++v) {
    EXPECT_EQ(fine.device_of(v), coarse.device_of(part.cluster_of[v]));
  }
}

// ---------------------------------------------------------------------------

TEST(Hierarchical, RefinementNeverWorsensAndMatchesFlatSimulation) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance in = make_instance(50, 8, 100 + seed);
    HierarchicalOptions opt;
    opt.partition.num_clusters = 6;
    opt.refine_rounds = 2;
    GiPHOptions aopt;
    aopt.embed_dim = 4;
    GiPHAgent agent(aopt);
    std::mt19937_64 rng(seed);

    HierarchicalPlacer placer(in.graph, in.network, kLat, opt);
    HierarchicalStats stats;
    const Placement fine = placer.place(agent, rng, &stats);

    EXPECT_TRUE(is_feasible(in.graph, in.network, fine));
    EXPECT_LE(stats.refined_objective, stats.expanded_objective)
        << "refinement must never worsen the expanded placement";
    // The reported objective IS the flat simulation of the returned
    // placement, bitwise (delta simulation contract).
    const double norm = placer.fine_normalizer() > 0.0 ? placer.fine_normalizer() : 1.0;
    const double flat = simulate(in.graph, in.network, fine, kLat).makespan / norm;
    EXPECT_EQ(flat, stats.refined_objective);
    EXPECT_EQ(placer.objective_of(fine), stats.refined_objective);
  }
}

TEST(Hierarchical, RefineImprovesAPoorExpansion) {
  // Starting from the worst-EFT-looking placement expansion refinement should
  // find at least one strictly improving move on a sizable instance.
  const Instance in = make_instance(60, 8, 42);
  HierarchicalOptions opt;
  opt.partition.num_clusters = 6;
  opt.coarse_steps_factor = 0;  // keep the HEFT warm start
  opt.refine_rounds = 3;
  GiPHOptions aopt;
  aopt.embed_dim = 4;
  GiPHAgent agent(aopt);
  std::mt19937_64 rng(9);
  HierarchicalPlacer placer(in.graph, in.network, kLat, opt);
  HierarchicalStats stats;
  (void)placer.place(agent, rng, &stats);
  EXPECT_GT(stats.refine_moves_tried, 0);
  EXPECT_LE(stats.refined_objective, stats.expanded_objective);
}

TEST(Hierarchical, RefineDisabledReturnsExpandedObjective) {
  const Instance in = make_instance(20, 4, 11);
  HierarchicalOptions opt;
  opt.partition.num_clusters = 4;
  opt.refine_rounds = 0;
  GiPHOptions aopt;
  aopt.embed_dim = 4;
  GiPHAgent agent(aopt);
  std::mt19937_64 rng(3);
  HierarchicalPlacer placer(in.graph, in.network, kLat, opt);
  HierarchicalStats stats;
  const Placement fine = placer.place(agent, rng, &stats);
  EXPECT_EQ(stats.refined_objective, stats.expanded_objective);
  EXPECT_EQ(placer.objective_of(fine), stats.expanded_objective);
}

TEST(Hierarchical, InvalidOptionsThrow) {
  const Instance in = make_instance(10, 3, 12);
  HierarchicalOptions opt;
  opt.refine_topk = 0;
  EXPECT_THROW(HierarchicalPlacer(in.graph, in.network, kLat, opt),
               std::invalid_argument);
  opt.refine_topk = 1;
  opt.refine_rounds = -1;
  EXPECT_THROW(HierarchicalPlacer(in.graph, in.network, kLat, opt),
               std::invalid_argument);
  opt.refine_rounds = 0;
  opt.coarse_steps_factor = -1;
  EXPECT_THROW(HierarchicalPlacer(in.graph, in.network, kLat, opt),
               std::invalid_argument);
}

TEST(Hierarchical, RefineWorkCountersAreExact) {
  // perfbench scale1000's tiny shape: 200 tasks (alpha 0.8, p_connect 2/200)
  // on a 20-device sparse topology (random spanning tree plus chords), 10
  // clusters, 3 refine rounds, the HEFT coarse warm start expanded. Every
  // count below is a pure function of these inputs, so a change to the delta
  // replay's dirty time or gate moves them with no timing noise.
  std::mt19937_64 rng(20260808);
  TaskGraphParams gp;
  gp.num_tasks = 200;
  gp.alpha = 0.8;
  gp.p_connect = 2.0 / 200;
  const TaskGraph g = generate_task_graph(gp, rng);
  NetworkParams np;
  np.num_devices = 20;
  DeviceNetwork n = generate_device_network(np, rng);
  std::vector<PhysicalLink> links;
  std::uniform_real_distribution<double> bw(20.0, 80.0);
  std::uniform_real_distribution<double> dl(0.1, 2.0);
  for (int i = 1; i < 20; ++i) {
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    links.push_back({j, i, bw(rng), dl(rng), true});
  }
  for (int c = 0; c < 40; ++c) {
    const int a = static_cast<int>(rng() % 20);
    const int b = static_cast<int>(rng() % 20);
    if (a != b) links.push_back({a, b, bw(rng), dl(rng), true});
  }
  apply_topology(n, links);
  ensure_feasible(g, n, rng);

  HierarchicalOptions opt;
  opt.partition.num_clusters = 10;
  opt.refine_rounds = 3;
  opt.coarse_steps_factor = 0;  // the HEFT warm start: no policy steps
  GiPHAgent agent(GiPHOptions{});
  std::mt19937_64 place_rng(5);
  HierarchicalPlacer placer(g, n, kLat, opt);
  Placement fine = placer.expand(placer.place_clusters(agent, place_rng));

  const std::uint64_t full0 = full_simulation_count();
  const std::uint64_t delta0 = delta_simulation_count();
  const std::uint64_t fallback0 = delta_fallback_count();
  HierarchicalStats stats;
  placer.refine(fine, &stats);
  const std::uint64_t replays = delta_simulation_count() - delta0;
  const std::uint64_t fallbacks = delta_fallback_count() - fallback0;
  EXPECT_EQ(static_cast<std::uint64_t>(stats.refine_moves_tried), replays + fallbacks);
  EXPECT_EQ(full_simulation_count() - full0, fallbacks + 1);  // + the initial run
  EXPECT_EQ(stats.refine_moves_tried, 2124);
  EXPECT_EQ(replays, 1853u);
  EXPECT_EQ(fallbacks, 271u);
}

// ---------------------------------------------------------------------------

TEST(SparseGpNet, TopKAtLeastDeviceCountIsBitwiseDense) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance in = make_instance(30, 6, 200 + seed);
    std::mt19937_64 rng(seed);
    const Placement p = random_placement(in.graph, in.network, rng);
    const auto feasible = feasible_sets(in.graph, in.network);
    const Schedule sched = simulate(in.graph, in.network, p, kLat);
    EstSweepWorkspace ws;
    est_sweep(sched, in.graph, in.network, p, kLat, ws);

    const GpNet dense = build_gpnet(in.graph, in.network, p, feasible);
    for (const int k : {in.network.num_devices(), in.network.num_devices() + 5}) {
      const GpNet sparse = build_gpnet_topk(in.graph, in.network, p, feasible, k, ws.est);
      EXPECT_EQ(sparse.node_task, dense.node_task);
      EXPECT_EQ(sparse.node_device, dense.node_device);
      EXPECT_EQ(sparse.is_pivot, dense.is_pivot);
      EXPECT_EQ(sparse.options, dense.options);
      EXPECT_EQ(sparse.pivot_of_task, dense.pivot_of_task);
      EXPECT_EQ(sparse.edge_task_edge, dense.edge_task_edge);
      EXPECT_EQ(sparse.view.edges, dense.view.edges);
      EXPECT_EQ(sparse.view.topo, dense.view.topo);
    }
  }
}

TEST(SparseGpNet, SmallKBoundsNodesAndKeepsPivots) {
  const Instance in = make_instance(40, 8, 300);
  std::mt19937_64 rng(5);
  const Placement p = random_placement(in.graph, in.network, rng);
  const auto feasible = feasible_sets(in.graph, in.network);
  const Schedule sched = simulate(in.graph, in.network, p, kLat);
  EstSweepWorkspace ws;
  est_sweep(sched, in.graph, in.network, p, kLat, ws);

  const int k = 2;
  const GpNet net = build_gpnet_topk(in.graph, in.network, p, feasible, k, ws.est);
  EXPECT_LE(net.num_nodes(), in.graph.num_tasks() * (k + 1));
  for (int v = 0; v < in.graph.num_tasks(); ++v) {
    ASSERT_GE(net.pivot_of_task[v], 0);
    EXPECT_EQ(net.node_task[net.pivot_of_task[v]], v);
    EXPECT_EQ(net.node_device[net.pivot_of_task[v]], p.device_of(v));
    EXPECT_LE(static_cast<int>(net.options[v].size()), k + 1);
    // Every emitted option is genuinely feasible.
    for (const int node : net.options[v]) {
      EXPECT_TRUE(device_feasible(in.graph, in.network, v, net.node_device[node]));
    }
  }
}

TEST(SparseGpNet, InvalidArgumentsThrow) {
  const Instance in = make_instance(6, 3, 301);
  std::mt19937_64 rng(6);
  const Placement p = random_placement(in.graph, in.network, rng);
  const auto feasible = feasible_sets(in.graph, in.network);
  EXPECT_THROW(build_gpnet_topk(in.graph, in.network, p, feasible, -1,
                                std::vector<double>(6 * 3, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(build_gpnet_topk(in.graph, in.network, p, feasible, 2,
                                std::vector<double>(5, 0.0)),
               std::invalid_argument);
}

TEST(SubsetEstSweep, MatchesFullSweepBitwise) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance in = make_instance(40, 7, 400 + seed);
    std::mt19937_64 rng(seed);
    const Placement p = random_placement(in.graph, in.network, rng);
    const Schedule sched = simulate(in.graph, in.network, p, kLat);
    const int nd = in.network.num_devices();

    EstSweepWorkspace full_ws, sub_ws;
    est_sweep(sched, in.graph, in.network, p, kLat, full_ws);

    std::vector<int> subset;
    for (int v = 0; v < in.graph.num_tasks(); ++v) {
      if (v % 3 == static_cast<int>(seed % 3)) subset.push_back(v);
    }
    subset.push_back(subset.front());  // duplicates are allowed
    est_sweep_subset(sched, in.graph, in.network, p, kLat, subset, sub_ws);
    for (const int v : subset) {
      for (int d = 0; d < nd; ++d) {
        const std::size_t at = static_cast<std::size_t>(v) * nd + d;
        EXPECT_EQ(full_ws.est[at], sub_ws.est[at])
            << "task " << v << " device " << d;
      }
    }
  }
}

}  // namespace
}  // namespace giph
