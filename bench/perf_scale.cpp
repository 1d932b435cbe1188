// Scale-tier benchmark: hierarchical placement on 1k-5k-task graphs over
// 100+ device sparse topologies. Quick mode runs 1000 tasks / 100 devices;
// GIPH_BENCH_SCALE=full (the nightly CI tier) runs 5000 tasks / 150 devices.
// Measurements:
//
//  1. partitioner  - partition_tasks throughput plus in-run invariant checks
//                    (every task in exactly one cluster, coarse DAG, conserved
//                    compute/bytes totals);
//  2. sparse gpNet - build_gpnet_topk build rate at scale (dense would
//                    materialize |V| x |D| nodes and |E| x |D|^2 edges), and a
//                    bitwise dense-equality check at k >= D on a paper-scale
//                    instance;
//  3. subset EST   - est_sweep_subset vs the full est_sweep on one cluster
//                    (the refinement inner loop's query);
//  4. end-to-end   - HierarchicalPlacer's three stages (place_clusters,
//                    expand, refine: what place() runs) with an untrained
//                    GiPHAgent (sparse gpNet on the coarse stage), reporting
//                    tasks/sec and the makespan ratio vs flat HEFT, with the
//                    never-worsen refinement contract checked in-run, and the
//                    process simulation counter read around refine: the run
//                    fails unless refinement ran exactly one simulation per
//                    try plus the initial one.
//
// Results go to BENCH_scale.json, which the nightly run uploads ungated; the
// exit code fails on any broken in-run check. Per-PR CI gates the 1000-task
// tier through perfbench's scale1000 workload instead.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>

#include "bench/common.hpp"
#include "core/giph_agent.hpp"
#include "core/gpnet.hpp"
#include "core/hierarchical.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "graph/topology.hpp"
#include "heft/heft.hpp"

using namespace giph;
using namespace giph::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sparse topology: random spanning tree + 2m chords projected onto the full
/// link model (unreachable pairs get punitive links inside apply_topology).
DeviceNetwork make_sparse_network(int num_devices, std::mt19937_64& rng) {
  NetworkParams np;
  np.num_devices = num_devices;
  DeviceNetwork n = generate_device_network(np, rng);
  std::vector<PhysicalLink> links;
  std::uniform_real_distribution<double> bw(20.0, 80.0);
  std::uniform_real_distribution<double> dl(0.1, 2.0);
  for (int i = 1; i < num_devices; ++i) {
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    links.push_back({j, i, bw(rng), dl(rng), true});
  }
  for (int c = 0; c < 2 * num_devices; ++c) {
    const int a = static_cast<int>(rng() % num_devices);
    const int b = static_cast<int>(rng() % num_devices);
    if (a == b) continue;
    links.push_back({a, b, bw(rng), dl(rng), true});
  }
  apply_topology(n, links);
  return n;
}

bool check_partition_invariants(const TaskGraph& g, const GraphPartition& part) {
  const int nt = g.num_tasks();
  if (static_cast<int>(part.cluster_of.size()) != nt) return false;
  std::vector<int> seen(nt, 0);
  for (int c = 0; c < part.num_clusters(); ++c) {
    for (int v : part.members[c]) {
      if (part.cluster_of[v] != c) return false;
      ++seen[v];
    }
  }
  for (int v = 0; v < nt; ++v) {
    if (seen[v] != 1) return false;  // exactly one cluster each
  }
  if (!part.coarse.is_dag()) return false;
  const double compute_err =
      std::abs(part.coarse.total_compute() - g.total_compute());
  const double bytes_err =
      std::abs(part.coarse.total_bytes() + part.internal_bytes - g.total_bytes());
  return compute_err <= 1e-6 * (1.0 + g.total_compute()) &&
         bytes_err <= 1e-6 * (1.0 + g.total_bytes());
}

bool gpnets_identical(const GpNet& a, const GpNet& b) {
  return a.node_task == b.node_task && a.node_device == b.node_device &&
         a.is_pivot == b.is_pivot && a.options == b.options &&
         a.pivot_of_task == b.pivot_of_task && a.edge_task_edge == b.edge_task_edge &&
         a.view.edges == b.view.edges && a.view.topo == b.view.topo;
}

}  // namespace

int main() {
  const Scale scale = Scale::from_env();
  const int num_tasks = scale.full ? 5000 : 1000;
  const int num_devices = scale.full ? 150 : 100;
  const DefaultLatencyModel lat;
  std::printf("Scale-tier benchmark (%d tasks, %d devices, %s)\n", num_tasks,
              num_devices, scale.full ? "full" : "quick");
  bool ok = true;

  std::mt19937_64 rng(20260808);
  TaskGraphParams gp;
  gp.num_tasks = num_tasks;
  gp.alpha = 0.8;
  // Realistic dataflow graphs are sparse; the default p_connect adds an extra
  // edge per task PAIR across levels, which at 1000+ tasks yields a 100k+
  // edge near-clique nothing in the scale tier (or reality) resembles.
  gp.p_connect = 2.0 / num_tasks;
  const TaskGraph g = generate_task_graph(gp, rng);
  DeviceNetwork n = make_sparse_network(num_devices, rng);
  ensure_feasible(g, n, rng);

  // ---- 1. partitioner ------------------------------------------------------
  PartitionOptions popt;
  popt.num_clusters = std::max(8, num_tasks / 20);
  const GraphPartition part = partition_tasks(g, n, popt);
  const bool part_ok = check_partition_invariants(g, part);
  ok = ok && part_ok;
  const int part_reps = scale.full ? 10 : 20;
  double part_best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < part_reps; ++i) {
      const GraphPartition p2 = partition_tasks(g, n, popt);
      if (p2.cluster_of != part.cluster_of) ok = false;  // determinism
    }
    part_best = std::max(
        part_best, static_cast<double>(part_reps) * num_tasks / seconds_since(t0));
  }
  print_header("partitioner");
  std::printf("%-36s %12d\n", "clusters (target)", popt.num_clusters);
  std::printf("%-36s %12d\n", "clusters (actual)", part.num_clusters());
  std::printf("%-36s %12.0f tasks/sec\n", "partition_tasks throughput", part_best);
  std::printf("%-36s %12s\n", "invariants hold", part_ok ? "yes" : "NO");

  // ---- 2. sparse gpNet -----------------------------------------------------
  // Equality at paper scale with k >= D: sparse must be bitwise-identical.
  bool sparse_equal = false;
  {
    std::mt19937_64 eq_rng(17);
    TaskGraphParams sgp;
    sgp.num_tasks = 60;
    NetworkParams snp;
    snp.num_devices = 12;
    TaskGraph sg = generate_task_graph(sgp, eq_rng);
    DeviceNetwork sn = generate_device_network(snp, eq_rng);
    ensure_feasible(sg, sn, eq_rng);
    const Placement sp = random_placement(sg, sn, eq_rng);
    const auto feas = feasible_sets(sg, sn);
    const Schedule ssched = simulate(sg, sn, sp, lat);
    EstSweepWorkspace ws;
    est_sweep(ssched, sg, sn, sp, lat, ws);
    const GpNet dense = build_gpnet(sg, sn, sp, feas);
    const GpNet sparse = build_gpnet_topk(sg, sn, sp, feas, sn.num_devices(), ws.est);
    sparse_equal = gpnets_identical(dense, sparse);
    ok = ok && sparse_equal;
    std::printf("%-36s %12s\n", "sparse == dense at k >= D",
                sparse_equal ? "yes" : "NO");
  }
  // Build rate at scale with small k (dense is intractable here by design).
  const auto feasible = feasible_sets(g, n);
  const Placement p0 = heft_schedule(g, n, lat).placement;
  const Schedule sched0 = simulate(g, n, p0, lat);
  EstSweepWorkspace sweep;
  est_sweep(sched0, g, n, p0, lat, sweep);
  const int topk = 4;
  const int gp_reps = scale.full ? 3 : 10;
  double gpnet_best = 0.0;
  std::size_t sparse_nodes = 0, sparse_edges = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < gp_reps; ++i) {
      const GpNet net = build_gpnet_topk(g, n, p0, feasible, topk, sweep.est);
      sparse_nodes = static_cast<std::size_t>(net.num_nodes());
      sparse_edges = static_cast<std::size_t>(net.num_edges());
    }
    gpnet_best = std::max(gpnet_best, gp_reps / seconds_since(t0));
  }
  print_header("sparse gpNet (k = 4)");
  std::printf("%-36s %12zu nodes, %zu edges\n", "sparse size", sparse_nodes,
              sparse_edges);
  std::printf("%-36s %12zu nodes (not materialized)\n", "dense would be",
              static_cast<std::size_t>(num_tasks) * num_devices);
  std::printf("%-36s %12.2f builds/sec\n", "build_gpnet_topk", gpnet_best);

  // ---- 3. subset EST sweep -------------------------------------------------
  const std::vector<int>& probe = part.members[part.num_clusters() / 2];
  const int est_reps = scale.full ? 5 : 20;
  double full_sec = 0.0, subset_sec = 0.0;
  {
    EstSweepWorkspace w2;
    est_sweep(sched0, g, n, p0, lat, w2);  // warm the comm-row cache
    auto t0 = Clock::now();
    for (int i = 0; i < est_reps; ++i) est_sweep(sched0, g, n, p0, lat, w2);
    full_sec = seconds_since(t0) / est_reps;
    est_sweep_subset(sched0, g, n, p0, lat, probe, w2);
    t0 = Clock::now();
    for (int i = 0; i < est_reps; ++i) {
      est_sweep_subset(sched0, g, n, p0, lat, probe, w2);
    }
    subset_sec = seconds_since(t0) / est_reps;
  }
  print_header("subset EST sweep (one cluster)");
  std::printf("%-36s %12zu tasks\n", "cluster size", probe.size());
  std::printf("%-36s %12.2f ms\n", "full est_sweep", 1e3 * full_sec);
  std::printf("%-36s %12.2f ms\n", "est_sweep_subset", 1e3 * subset_sec);
  std::printf("%-36s %11.2fx\n", "speedup", full_sec / subset_sec);

  // ---- 4. end-to-end hierarchical placement --------------------------------
  GiPHOptions gopt;
  gopt.gpnet_topk = 8;
  GiPHAgent agent(gopt);
  HierarchicalOptions hopt;
  hopt.partition = popt;
  hopt.refine_rounds = scale.full ? 2 : 3;
  HierarchicalPlacer placer(g, n, lat, hopt);
  HierarchicalStats stats;
  std::mt19937_64 place_rng(5);
  const auto t0 = Clock::now();
  Placement hier =
      placer.expand(placer.place_clusters(agent, place_rng, &stats.coarse_objective));
  const std::uint64_t sims0 = simulation_count();
  placer.refine(hier, &stats);
  const std::uint64_t refine_sims = simulation_count() - sims0;
  const double hier_sec = seconds_since(t0);
  const bool monotone = stats.refined_objective <= stats.expanded_objective;
  const bool hier_feasible = is_feasible(g, n, hier);
  const auto tries = static_cast<std::uint64_t>(stats.refine_moves_tried);
  const bool one_sim_per_try = refine_sims == tries + 1;
  ok = ok && monotone && hier_feasible && one_sim_per_try;
  const double heft_slr = placer.objective_of(p0);
  const double vs_heft = stats.refined_objective / heft_slr;
  print_header("end-to-end hierarchical placement");
  std::printf("%-36s %12.3f s (%0.0f tasks/sec)\n", "partition+place+refine",
              hier_sec, num_tasks / hier_sec);
  std::printf("%-36s %12.4f SLR\n", "coarse (cluster graph)", stats.coarse_objective);
  std::printf("%-36s %12.4f SLR\n", "expanded", stats.expanded_objective);
  std::printf("%-36s %12.4f SLR\n", "refined", stats.refined_objective);
  std::printf("%-36s %12lld kept / %lld tried\n", "refinement moves",
              static_cast<long long>(stats.refine_moves_kept),
              static_cast<long long>(stats.refine_moves_tried));
  std::printf("%-36s %12llu (tries + 1 = %llu)\n", "refinement simulations",
              static_cast<unsigned long long>(refine_sims),
              static_cast<unsigned long long>(tries + 1));
  std::printf("%-36s %12.4f\n", "simulations per try",
              tries == 0 ? 0.0
                         : static_cast<double>(refine_sims) / static_cast<double>(tries));
  std::printf("%-36s %12s\n", "one simulation per try",
              one_sim_per_try ? "yes" : "NO");
  std::printf("%-36s %12.4f SLR\n", "flat HEFT", heft_slr);
  std::printf("%-36s %12.3f (< 1 beats HEFT)\n", "hier / HEFT", vs_heft);
  std::printf("%-36s %12s\n", "refinement monotone", monotone ? "yes" : "NO");
  std::printf("%-36s %12s\n", "placement feasible", hier_feasible ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_scale.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"case\": {\"tasks\": %d, \"devices\": %d, \"clusters\": %d},\n"
                 "  \"partition_tasks_per_sec\": %.1f,\n"
                 "  \"partition_invariants_ok\": %s,\n"
                 "  \"sparse_gpnet_builds_per_sec\": %.3f,\n"
                 "  \"sparse_gpnet_bitwise_identical\": %s,\n"
                 "  \"subset_est_speedup\": %.2f,\n"
                 "  \"hier_tasks_per_sec\": %.1f,\n"
                 "  \"hier_refined_slr\": %.4f,\n"
                 "  \"hier_vs_heft_ratio\": %.4f,\n"
                 "  \"refine_monotone_bitwise_identical\": %s\n"
                 "}\n",
                 num_tasks, num_devices, part.num_clusters(), part_best,
                 part_ok ? "true" : "false", gpnet_best,
                 sparse_equal ? "true" : "false", full_sec / subset_sec,
                 num_tasks / hier_sec, stats.refined_objective, vs_heft,
                 monotone ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_scale.json\n");
  }
  return ok ? 0 : 1;
}
