#pragma once

// Shared test fixtures: the hand-computed two-device network / three-task
// chain used across the simulator-layer tests, seeded random problem
// builders, and the bitwise schedule comparisons. Kept header-only so every
// test file (and the sanitize subset) can use them without extra link deps.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "graph/placement.hpp"
#include "sim/simulator.hpp"

namespace giph {
namespace testutil {

/// Two devices (speeds 1 and 2) joined by a bandwidth-2, delay-1 link. The
/// canonical hand-computable network of the simulator tests.
inline DeviceNetwork two_devices() {
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0});
  n.add_device(Device{.speed = 2.0});
  n.set_symmetric_link(0, 1, 2.0, 1.0);  // bandwidth 2 bytes/time, delay 1
  return n;
}

/// Chain 0 -> 1 -> 2 (computes 2/4/6, edges 8/16 bytes). Placed with
/// alternating3() on two_devices(): t0 [0,2] d0, t1 [7,9] d1, t2 [18,24] d0,
/// makespan 24 (hand-derived in simulator_test.cpp).
inline TaskGraph chain3() {
  TaskGraph g;
  g.add_task(Task{.compute = 2.0});
  g.add_task(Task{.compute = 4.0});
  g.add_task(Task{.compute = 6.0});
  g.add_edge(0, 1, 8.0);
  g.add_edge(1, 2, 16.0);
  return g;
}

/// The d0 / d1 / d0 placement of chain3().
inline Placement alternating3() {
  Placement p(3);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 0);
  return p;
}

/// A seeded random (graph, network, placement) triple. The network is patched
/// with ensure_feasible so the placement always exists.
struct RandomCase {
  TaskGraph graph;
  DeviceNetwork network;
  Placement placement;
};

inline RandomCase random_case(std::uint64_t seed, int num_tasks = 16,
                              int num_devices = 5) {
  std::mt19937_64 rng(seed);
  TaskGraphParams gp;
  gp.num_tasks = num_tasks;
  NetworkParams np;
  np.num_devices = num_devices;
  RandomCase c;
  c.graph = generate_task_graph(gp, rng);
  c.network = generate_device_network(np, rng);
  ensure_feasible(c.graph, c.network, rng);
  c.placement = random_placement(c.graph, c.network, rng);
  return c;
}

/// Asserts every field of the two schedules is bitwise identical (EXPECT_EQ
/// on doubles, not EXPECT_DOUBLE_EQ: the contract is exact equality).
inline void expect_schedules_bitwise_equal(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  ASSERT_EQ(a.edge_start.size(), b.edge_start.size());
  ASSERT_EQ(a.edge_finish.size(), b.edge_finish.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t v = 0; v < a.tasks.size(); ++v) {
    EXPECT_EQ(a.tasks[v].start, b.tasks[v].start) << "task " << v;
    EXPECT_EQ(a.tasks[v].finish, b.tasks[v].finish) << "task " << v;
  }
  for (std::size_t e = 0; e < a.edge_start.size(); ++e) {
    EXPECT_EQ(a.edge_start[e], b.edge_start[e]) << "edge " << e;
    EXPECT_EQ(a.edge_finish[e], b.edge_finish[e]) << "edge " << e;
  }
}

/// Byte-for-byte equality: unlike ==, it tells -0.0 from 0.0 and equates a
/// NaN with the same NaN.
template <typename T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

inline bool bytes_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

inline bool schedule_bytes_equal(const Schedule& a, const Schedule& b) {
  return bytes_equal(a.tasks, b.tasks) && bytes_equal(a.edge_start, b.edge_start) &&
         bytes_equal(a.edge_finish, b.edge_finish) && bytes_equal(a.makespan, b.makespan);
}

}  // namespace testutil
}  // namespace giph
