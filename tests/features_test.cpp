#include "core/features.hpp"

#include <gtest/gtest.h>

namespace giph {
namespace {

const DefaultLatencyModel kLat;

struct Fixture {
  TaskGraph g;
  DeviceNetwork n;
  Placement m;
  std::vector<std::vector<int>> feasible;
  Fixture() : m(2) {
    g.add_task(Task{.compute = 4.0});
    g.add_task(Task{.compute = 8.0});
    g.add_edge(0, 1, 20.0);
    n.add_device(Device{.speed = 1.0});
    n.add_device(Device{.speed = 2.0});
    n.set_symmetric_link(0, 1, 10.0, 1.0);
    m.set(0, 0);
    m.set(1, 1);
    feasible = feasible_sets(g, n);
  }
};

TEST(FeatureScales, MatchHandComputation) {
  Fixture f;
  const FeatureScales s = compute_feature_scales(f.g, f.n, kLat);
  EXPECT_DOUBLE_EQ(s.compute, 6.0);
  EXPECT_DOUBLE_EQ(s.speed, 1.5);
  // w over feasible pairs: {4, 2, 8, 4} -> 4.5.
  EXPECT_DOUBLE_EQ(s.w, 4.5);
  EXPECT_DOUBLE_EQ(s.bytes, 20.0);
  EXPECT_DOUBLE_EQ(s.bw, 10.0);
  EXPECT_DOUBLE_EQ(s.dl, 1.0);
  EXPECT_DOUBLE_EQ(s.c, 1.0 + 2.0);
}

TEST(FeatureScales, DegenerateInputsAreGuarded) {
  TaskGraph g;
  g.add_task(Task{.compute = 0.0});
  DeviceNetwork n(1);
  n.device(0).speed = 1.0;
  const FeatureScales s = compute_feature_scales(g, n, kLat);
  EXPECT_GT(s.compute, 0.0);
  EXPECT_GT(s.w, 0.0);
  EXPECT_GT(s.c, 0.0);
  EXPECT_GT(s.bw, 0.0);
}

TEST(GpNetFeatures, NodeFeatureValues) {
  Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  const Schedule sched = simulate(f.g, f.n, f.m, kLat);
  const FeatureScales s = compute_feature_scales(f.g, f.n, kLat);
  const GpNetFeatures feats =
      build_gpnet_features(net, f.g, f.n, f.m, kLat, sched, s);
  ASSERT_EQ(feats.node.rows(), net.num_nodes());
  ASSERT_EQ(feats.node.cols(), kNodeFeatureDim);
  for (int u = 0; u < net.num_nodes(); ++u) {
    const int v = net.node_task[u];
    const int d = net.node_device[u];
    EXPECT_DOUBLE_EQ(feats.node(u, 0), f.g.task(v).compute / s.compute);
    EXPECT_DOUBLE_EQ(feats.node(u, 1), f.n.device(d).speed / s.speed);
    EXPECT_DOUBLE_EQ(feats.node(u, 2), kLat.compute_time(f.g, f.n, v, d) / s.w);
  }
}

TEST(GpNetFeatures, StartTimePotentialIdentifiesBetterDevice) {
  Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  const Schedule sched = simulate(f.g, f.n, f.m, kLat);
  const FeatureScales s = compute_feature_scales(f.g, f.n, kLat);
  const GpNetFeatures feats =
      build_gpnet_features(net, f.g, f.n, f.m, kLat, sched, s);
  // Task 1 currently on d1 starts at 4 + 1 + 2 = 7; on d0 it could start at
  // 4. Its potential for (1, d0) is (7 - 4)/s.w > 0; for its pivot it is 0.
  for (int u = 0; u < net.num_nodes(); ++u) {
    if (net.node_task[u] != 1) continue;
    if (net.node_device[u] == 0) {
      EXPECT_NEAR(feats.node(u, 3), 3.0 / s.w, 1e-12);
    } else {
      EXPECT_NEAR(feats.node(u, 3), 0.0, 1e-12);
    }
  }
}

TEST(GpNetFeatures, PotentialCanBeDisabled) {
  Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  const Schedule sched = simulate(f.g, f.n, f.m, kLat);
  const FeatureScales s = compute_feature_scales(f.g, f.n, kLat);
  const GpNetFeatures feats =
      build_gpnet_features(net, f.g, f.n, f.m, kLat, sched, s, false);
  for (int u = 0; u < net.num_nodes(); ++u) EXPECT_EQ(feats.node(u, 3), 0.0);
}

TEST(GpNetFeatures, EdgeFeatureValues) {
  Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  const Schedule sched = simulate(f.g, f.n, f.m, kLat);
  const FeatureScales s = compute_feature_scales(f.g, f.n, kLat);
  const GpNetFeatures feats =
      build_gpnet_features(net, f.g, f.n, f.m, kLat, sched, s);
  ASSERT_EQ(feats.edge.rows(), net.num_edges());
  for (int e = 0; e < net.num_edges(); ++e) {
    const auto [u1, u2] = net.view.edges[e];
    const int dk = net.node_device[u1];
    const int dl = net.node_device[u2];
    EXPECT_DOUBLE_EQ(feats.edge(e, 0), 20.0 / s.bytes);
    if (dk == dl) {
      EXPECT_EQ(feats.edge(e, 1), 0.0);  // local: infinite bandwidth
      EXPECT_EQ(feats.edge(e, 3), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(feats.edge(e, 1), s.bw / f.n.bandwidth(dk, dl));
      EXPECT_DOUBLE_EQ(feats.edge(e, 3),
                       kLat.comm_time(f.g, f.n, 0, dk, dl) / s.c);
    }
  }
}

TEST(GpNetFeatures, MergedEdgeFeaturesAppendMeans) {
  Fixture f;
  const GpNet net = build_gpnet(f.g, f.n, f.m, f.feasible);
  const Schedule sched = simulate(f.g, f.n, f.m, kLat);
  const FeatureScales s = compute_feature_scales(f.g, f.n, kLat);
  const GpNetFeatures feats =
      build_gpnet_features(net, f.g, f.n, f.m, kLat, sched, s);
  const nn::Matrix merged = append_mean_out_edge_features(net, feats);
  ASSERT_EQ(merged.cols(), kNodeFeatureDim + kEdgeFeatureDim);
  for (int u = 0; u < net.num_nodes(); ++u) {
    for (int j = 0; j < kNodeFeatureDim; ++j) {
      EXPECT_EQ(merged(u, j), feats.node(u, j));
    }
    const auto& oes = net.view.out_edges[u];
    if (oes.empty()) {
      for (int j = 0; j < kEdgeFeatureDim; ++j) {
        EXPECT_EQ(merged(u, kNodeFeatureDim + j), 0.0);
      }
    } else {
      double sum0 = 0.0;
      for (int e : oes) sum0 += feats.edge(e, 0);
      EXPECT_NEAR(merged(u, kNodeFeatureDim), sum0 / oes.size(), 1e-12);
    }
  }
}

TEST(TaskGraphFeatures, ShapesAndBestImprovement) {
  Fixture f;
  const Schedule sched = simulate(f.g, f.n, f.m, kLat);
  const FeatureScales s = compute_feature_scales(f.g, f.n, kLat);
  TaskGraphFeatures feats;
  build_task_graph_features_into(feats, f.g, f.n, f.m, kLat, sched, f.feasible, s);
  ASSERT_EQ(feats.node.rows(), 2);
  ASSERT_EQ(feats.edge.rows(), 1);
  // Task 1's best start improvement is 3 (moving to d0), normalized by s.w.
  EXPECT_NEAR(feats.node(1, 3), 3.0 / s.w, 1e-12);
  // Task 0 is an entry: no improvement possible.
  EXPECT_EQ(feats.node(0, 3), 0.0);
}

}  // namespace
}  // namespace giph
