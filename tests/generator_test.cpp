#include <gtest/gtest.h>

#include "gen/dataset.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "graph/placement.hpp"

namespace giph {
namespace {

// ---- task graph generator: property sweep over the parameter grid ---------

// GenCase has no gtest printer, so each case is named by a byte dump of the
// struct. `name_tag` fills what used to be padding after `num_tasks`: left
// uninitialised, those bytes held whatever the heap had there, and the case
// names changed from build to build and run to run. The tags are fixed to the
// bytes the cases were first named with, so the names are stable; the test
// body never reads them.
struct GenCase {
  int num_tasks;
  std::uint32_t name_tag;
  double alpha;
  double het;
  std::uint64_t seed;
};
static_assert(sizeof(GenCase) == 32, "no padding may reach the case names");

class TaskGraphGenProperties : public ::testing::TestWithParam<GenCase> {};

TEST_P(TaskGraphGenProperties, StructuralInvariants) {
  const GenCase c = GetParam();
  TaskGraphParams p;
  p.num_tasks = c.num_tasks;
  p.alpha = c.alpha;
  p.het_compute = c.het;
  p.het_bytes = c.het;
  std::mt19937_64 rng(c.seed);
  for (int rep = 0; rep < 10; ++rep) {
    const TaskGraph g = generate_task_graph(p, rng);
    EXPECT_EQ(g.num_tasks(), c.num_tasks);
    EXPECT_TRUE(g.is_dag());
    if (c.num_tasks >= 2) {
      EXPECT_EQ(g.entry_tasks().size(), 1u) << "single entry";
      EXPECT_EQ(g.exit_tasks().size(), 1u) << "single exit";
    }
    for (int v = 0; v < g.num_tasks(); ++v) {
      EXPECT_GE(g.task(v).compute, p.mean_compute * (1 - p.het_compute) - 1e-9);
      EXPECT_LE(g.task(v).compute, p.mean_compute * (1 + p.het_compute) + 1e-9);
    }
    for (const DataLink& e : g.edges()) {
      EXPECT_GE(e.bytes, p.mean_bytes * (1 - p.het_bytes) - 1e-9);
      EXPECT_LE(e.bytes, p.mean_bytes * (1 + p.het_bytes) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TaskGraphGenProperties,
    ::testing::Values(GenCase{1, 0, 1.0, 0.5, 1}, GenCase{2, 0, 1.0, 0.5, 2},
                      GenCase{3, 0, 0.5, 0.1, 3}, GenCase{8, 0, 0.5, 0.3, 4},
                      GenCase{8, 0x63726172u, 2.0, 0.3, 5},
                      GenCase{20, 0, 1.0, 0.5, 6},
                      GenCase{40, 0xEFD00000u, 0.4, 0.9, 7},
                      GenCase{40, 0, 2.0, 0.0, 8},
                      GenCase{100, 0xCAD00000u, 1.0, 0.5, 9}));

TEST(TaskGraphGen, ShapeParameterControlsDepth) {
  TaskGraphParams narrow, wide;
  narrow.num_tasks = wide.num_tasks = 36;
  narrow.alpha = 0.4;  // mean depth = 15
  wide.alpha = 2.0;    // mean depth = 3
  std::mt19937_64 rng(11);
  double narrow_depth = 0.0, wide_depth = 0.0;
  const int reps = 40;
  for (int i = 0; i < reps; ++i) {
    narrow_depth += generate_task_graph(narrow, rng).depth();
    wide_depth += generate_task_graph(wide, rng).depth();
  }
  EXPECT_GT(narrow_depth / reps, 1.8 * wide_depth / reps);
}

TEST(TaskGraphGen, ConnectionProbabilityAddsEdges) {
  TaskGraphParams sparse, dense;
  sparse.num_tasks = dense.num_tasks = 20;
  sparse.p_connect = 0.0;
  dense.p_connect = 0.8;
  std::mt19937_64 rng(13);
  double se = 0.0, de = 0.0;
  for (int i = 0; i < 20; ++i) {
    se += generate_task_graph(sparse, rng).num_edges();
    de += generate_task_graph(dense, rng).num_edges();
  }
  EXPECT_GT(de, 2.0 * se);
}

TEST(TaskGraphGen, HwRequirementsAreSingleKinds) {
  TaskGraphParams p;
  p.num_tasks = 50;
  p.p_task_requires = 1.0;
  p.num_hw_kinds = 3;
  std::mt19937_64 rng(17);
  const TaskGraph g = generate_task_graph(p, rng);
  for (int v = 0; v < g.num_tasks(); ++v) {
    const HwMask m = g.task(v).requires_hw;
    EXPECT_NE(m, 0u);
    EXPECT_EQ(m & (m - 1), 0u) << "power of two";
    EXPECT_LT(m, HwMask{1} << 3);
  }
}

TEST(TaskGraphGen, InvalidParamsThrow) {
  std::mt19937_64 rng(1);
  TaskGraphParams p;
  p.num_tasks = 0;
  EXPECT_THROW(generate_task_graph(p, rng), std::invalid_argument);
  p.num_tasks = 5;
  p.alpha = 0.0;
  EXPECT_THROW(generate_task_graph(p, rng), std::invalid_argument);
}

TEST(TaskGraphGen, DeterministicGivenSeed) {
  TaskGraphParams p;
  p.num_tasks = 15;
  std::mt19937_64 a(42), b(42);
  const TaskGraph g1 = generate_task_graph(p, a);
  const TaskGraph g2 = generate_task_graph(p, b);
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (int e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).src, g2.edge(e).src);
    EXPECT_EQ(g1.edge(e).dst, g2.edge(e).dst);
    EXPECT_EQ(g1.edge(e).bytes, g2.edge(e).bytes);
  }
}

// ---- device network generator ---------------------------------------------

class NetworkGenProperties : public ::testing::TestWithParam<int> {};

TEST_P(NetworkGenProperties, RangesAndSymmetry) {
  NetworkParams p;
  p.num_devices = GetParam();
  std::mt19937_64 rng(p.num_devices);
  const DeviceNetwork n = generate_device_network(p, rng);
  EXPECT_EQ(n.num_devices(), p.num_devices);
  for (int k = 0; k < n.num_devices(); ++k) {
    EXPECT_GE(n.device(k).speed, p.mean_speed * (1 - p.het_speed) - 1e-9);
    EXPECT_LE(n.device(k).speed, p.mean_speed * (1 + p.het_speed) + 1e-9);
    for (int l = 0; l < n.num_devices(); ++l) {
      if (k == l) continue;
      EXPECT_EQ(n.bandwidth(k, l), n.bandwidth(l, k));
      EXPECT_EQ(n.delay(k, l), n.delay(l, k));
      EXPECT_GE(n.bandwidth(k, l), p.mean_bandwidth * (1 - p.het_bandwidth) - 1e-9);
      EXPECT_LE(n.bandwidth(k, l), p.mean_bandwidth * (1 + p.het_bandwidth) + 1e-9);
      EXPECT_GE(n.delay(k, l), 0.0);
      EXPECT_LE(n.delay(k, l), 2.0 * p.mean_delay + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NetworkGenProperties, ::testing::Values(1, 2, 5, 16));

TEST(NetworkGen, EnsureFeasibleAddsMissingSupport) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .requires_hw = 0b100});
  DeviceNetwork n;
  n.add_device(Device{.supports_hw = 0b011});
  std::mt19937_64 rng(3);
  EXPECT_EQ(ensure_feasible(g, n, rng), 1);
  EXPECT_FALSE(feasible_devices(g, n, 0).empty());
  EXPECT_EQ(ensure_feasible(g, n, rng), 0);  // already feasible
}

TEST(NetworkGen, EnsureAllKindsCoversEveryKind) {
  NetworkParams p;
  p.num_devices = 4;
  p.p_hw_support = 0.0;  // no device supports anything
  std::mt19937_64 rng(5);
  DeviceNetwork n = generate_device_network(p, rng);
  EXPECT_EQ(ensure_all_kinds(n, 4, rng), 4);
  for (int b = 0; b < 4; ++b) {
    EXPECT_FALSE(n.feasible_devices(HwMask{1} << b).empty());
  }
}

TEST(Dataset, GenerateDatasetProducesFeasiblePairs) {
  std::mt19937_64 rng(9);
  const Dataset ds = generate_dataset(default_graph_parameter_grid(),
                                      default_network_parameter_grid(), 12, 6, rng);
  EXPECT_EQ(ds.graphs.size(), 12u);
  EXPECT_EQ(ds.networks.size(), 6u);
  for (const TaskGraph& g : ds.graphs) {
    for (const DeviceNetwork& n : ds.networks) {
      EXPECT_NO_THROW(feasible_sets(g, n));
    }
  }
}

}  // namespace
}  // namespace giph
