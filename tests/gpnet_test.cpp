#include "core/gpnet.hpp"

#include <gtest/gtest.h>

#include "gen/dataset.hpp"

namespace giph {
namespace {

struct Fig1Fixture {
  // Mirrors the structure of the paper's Fig. 1: 5 tasks, constrained
  // feasible sets, 4 devices.
  TaskGraph g;
  DeviceNetwork n;
  Placement m;
  std::vector<std::vector<int>> feasible;
  Fig1Fixture() : m(5) {
    for (int i = 0; i < 5; ++i) g.add_task(Task{.compute = 1.0 + i});
    // v0 -> v1, v0 -> v2, v1 -> v3, v1 -> v4, v2 -> v3
    g.add_edge(0, 1, 1.0);
    g.add_edge(0, 2, 1.0);
    g.add_edge(1, 3, 1.0);
    g.add_edge(1, 4, 1.0);
    g.add_edge(2, 3, 1.0);
    for (int k = 0; k < 4; ++k) {
      n.add_device(Device{.speed = 1.0, .supports_hw = HwMask{1} << k});
    }
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) n.set_symmetric_link(a, b, 1.0, 0.0);
    }
    // Feasible sets via hw requirements: D0 = {d0, d1}, D1 = {d1, d2},
    // D2 = {d3}, D3 = {d2, d3}, D4 = {d0, d1}.
    auto require = [&](int task, std::initializer_list<int> devs) {
      HwMask need = 0;
      (void)task;
      for (int d : devs) need |= HwMask{1} << d;
      return need;
    };
    // Bits 0-3 are the devices' own; each allow() call takes the next fresh
    // one of this fixture (4-8), so every fixture builds the same masks.
    int next_bit = 4;
    auto allow = [&](int task, std::initializer_list<int> devs) {
      // A task requiring any listed device: use a dedicated bit scheme where
      // the task requires a fresh bit supported exactly by those devices.
      const HwMask bit = HwMask{1} << next_bit++;
      g.task(task).requires_hw = bit;
      for (int d : devs) n.device(d).supports_hw |= bit;
      (void)require;
    };
    allow(0, {0, 1});
    allow(1, {1, 2});
    allow(2, {3});
    allow(3, {2, 3});
    allow(4, {0, 1});
    m.set(0, 0);
    m.set(1, 2);
    m.set(2, 3);
    m.set(3, 3);
    m.set(4, 1);
    feasible = feasible_sets(g, n);
  }
};

TEST(GpNet, NodeCountMatchesClosedForm) {
  Fig1Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  int expected = 0;
  for (const auto& s : f.feasible) expected += static_cast<int>(s.size());
  EXPECT_EQ(net.num_nodes(), expected);
  EXPECT_EQ(net.num_nodes(), 2 + 2 + 1 + 2 + 2);
}

TEST(GpNet, EdgeCountMatchesClosedForm) {
  Fig1Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  // |E_H| = sum_i |D_i| |E_i| - |E|.
  int expected = 0;
  for (int v = 0; v < f.g.num_tasks(); ++v) {
    expected += static_cast<int>(f.feasible[v].size()) * f.g.degree(v);
  }
  expected -= f.g.num_edges();
  EXPECT_EQ(net.num_edges(), expected);
}

TEST(GpNet, ExactlyOnePivotPerTask) {
  Fig1Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  std::vector<int> pivots(f.g.num_tasks(), 0);
  for (int u = 0; u < net.num_nodes(); ++u) {
    if (net.is_pivot[u]) {
      ++pivots[net.node_task[u]];
      EXPECT_EQ(net.node_device[u], f.m.device_of(net.node_task[u]));
      EXPECT_EQ(net.pivot_of_task[net.node_task[u]], u);
    }
  }
  for (int v = 0; v < f.g.num_tasks(); ++v) EXPECT_EQ(pivots[v], 1);
}

TEST(GpNet, EveryEdgeTouchesAPivot) {
  Fig1Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  for (const auto& [u1, u2] : net.view.edges) {
    EXPECT_TRUE(net.is_pivot[u1] || net.is_pivot[u2]);
  }
}

TEST(GpNet, EdgesFollowTaskGraphDependencies) {
  Fig1Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  for (int e = 0; e < net.num_edges(); ++e) {
    const auto [u1, u2] = net.view.edges[e];
    const int ge = net.edge_task_edge[e];
    EXPECT_EQ(net.node_task[u1], f.g.edge(ge).src);
    EXPECT_EQ(net.node_task[u2], f.g.edge(ge).dst);
  }
}

TEST(GpNet, NonPivotNodesConnectOnlyToPivotNeighbors) {
  Fig1Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  for (int u = 0; u < net.num_nodes(); ++u) {
    if (net.is_pivot[u]) continue;
    for (int e : net.view.in_edges[u]) {
      EXPECT_TRUE(net.is_pivot[net.view.edges[e].first]);
    }
    for (int e : net.view.out_edges[u]) {
      EXPECT_TRUE(net.is_pivot[net.view.edges[e].second]);
    }
  }
}

TEST(GpNet, OptionsPartitionNodes) {
  Fig1Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  int total = 0;
  for (int v = 0; v < f.g.num_tasks(); ++v) {
    for (int u : net.options[v]) EXPECT_EQ(net.node_task[u], v);
    total += static_cast<int>(net.options[v].size());
  }
  EXPECT_EQ(total, net.num_nodes());
}

TEST(GpNet, TopologicalOrderIsValid) {
  Fig1Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  std::vector<int> pos(net.num_nodes());
  for (int i = 0; i < net.num_nodes(); ++i) pos[net.view.topo[i]] = i;
  for (const auto& [u1, u2] : net.view.edges) EXPECT_LT(pos[u1], pos[u2]);
}

TEST(GpNet, InfeasiblePlacementRejected) {
  Fig1Fixture f;
  f.m.set(2, 0);  // v2 only allows d3
  EXPECT_THROW(build_gpnet(f.g, f.n, f.m, f.feasible), std::invalid_argument);
}

TEST(GpNet, CountsHoldOnRandomInstances) {
  std::mt19937_64 rng(31);
  TaskGraphParams gp;
  gp.num_tasks = 18;
  gp.p_task_requires = 0.5;
  NetworkParams np;
  np.num_devices = 7;
  for (int rep = 0; rep < 5; ++rep) {
    const TaskGraph g = generate_task_graph(gp, rng);
    DeviceNetwork n = generate_device_network(np, rng);
    ensure_all_kinds(n, np.num_hw_kinds, rng);
    const auto feasible = feasible_sets(g, n);
    const Placement m = random_placement(g, n, rng);
    const GpNet net = build_gpnet(g, n, m, feasible);
    int nodes = 0, edges = -g.num_edges();
    for (int v = 0; v < g.num_tasks(); ++v) {
      nodes += static_cast<int>(feasible[v].size());
      edges += static_cast<int>(feasible[v].size()) * g.degree(v);
    }
    EXPECT_EQ(net.num_nodes(), nodes);
    EXPECT_EQ(net.num_edges(), edges);
  }
}

// Field by field, so a failure names the field; edge order is part of the
// contract (it fixes the segment mean's accumulation order).
void expect_same_view(const GraphView& a, const GraphView& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.in_edges, b.in_edges);
  EXPECT_EQ(a.out_edges, b.out_edges);
  EXPECT_EQ(a.topo, b.topo);
}

void expect_same_gpnet(const GpNet& a, const GpNet& b) {
  expect_same_view(a.view, b.view);
  EXPECT_EQ(a.node_task, b.node_task);
  EXPECT_EQ(a.node_device, b.node_device);
  EXPECT_EQ(a.is_pivot, b.is_pivot);
  EXPECT_EQ(a.options, b.options);
  EXPECT_EQ(a.pivot_of_task, b.pivot_of_task);
  EXPECT_EQ(a.edge_task_edge, b.edge_task_edge);
}

// One GpNet and one GraphView rebuilt in place across random one-task move
// chains on a stream of instances that grow and shrink, dense and top-k
// (k = 0, 1, 2, with EST ties), must equal a fresh by-value build every time.
TEST(GpNetRebuild, InPlaceRebuildEqualsFreshBuildAcrossMovesAndInstances) {
  std::mt19937_64 rng(2026);
  GpNet net;
  GraphView view;
  const int sizes[][2] = {{6, 3}, {14, 8}, {9, 5}, {20, 10}, {4, 2}, {12, 6}, {17, 9}};
  int checks = 0;
  for (const auto& [tasks, devices] : sizes) {
    TaskGraphParams gp;
    gp.num_tasks = tasks;
    gp.p_task_requires = 0.4;
    NetworkParams np;
    np.num_devices = devices;
    const TaskGraph g = generate_task_graph(gp, rng);
    DeviceNetwork n = generate_device_network(np, rng);
    ensure_all_kinds(n, np.num_hw_kinds, rng);
    const auto feasible = feasible_sets(g, n);
    Placement m = random_placement(g, n, rng);

    graph_view_of(g, view);
    expect_same_view(view, graph_view_of(g));

    // EST-like table on a coarse grid, so top-k ranking meets ties.
    std::vector<double> est(static_cast<std::size_t>(tasks) * devices);
    std::uniform_int_distribution<int> grid(0, 4);
    for (double& x : est) x = 0.5 * grid(rng);

    std::uniform_int_distribution<int> pick_task(0, tasks - 1);
    for (int step = 0; step < 25; ++step) {
      const int v = pick_task(rng);
      std::uniform_int_distribution<int> pick_dev(
          0, static_cast<int>(feasible[v].size()) - 1);
      m.set(v, feasible[v][pick_dev(rng)]);
      const int k = step % 4 - 1;  // -1 = dense, then k = 0, 1, 2
      if (k < 0) {
        build_gpnet_into(net, g, n, m, feasible);
        expect_same_gpnet(net, build_gpnet(g, n, m, feasible));
      } else {
        build_gpnet_into(net, g, n, m, feasible, k, est);
        expect_same_gpnet(net, build_gpnet_topk(g, n, m, feasible, k, est));
      }
      ++checks;
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_EQ(checks, 7 * 25);
}

TEST(GraphView, FinalizeDetectsCycle) {
  GraphView v;
  v.reset(2);
  v.add_edge(0, 1);
  v.add_edge(1, 0);
  EXPECT_THROW(v.finalize(), std::logic_error);
}

TEST(GraphView, GraphViewOfMirrorsTaskGraph) {
  TaskGraph g;
  for (int i = 0; i < 3; ++i) g.add_task(Task{});
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const GraphView v = graph_view_of(g);
  EXPECT_EQ(v.num_nodes, 3);
  EXPECT_EQ(v.edges.size(), 2u);
  EXPECT_EQ(v.topo, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace giph
