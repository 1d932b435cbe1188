#include "heft/heft.hpp"

#include <gtest/gtest.h>

#include "gen/dataset.hpp"
#include "gen/task_graph_gen.hpp"
#include "sim/metrics.hpp"

namespace giph {
namespace {

const DefaultLatencyModel kLat;

struct Fixture {
  TaskGraph g;
  DeviceNetwork n;
  Fixture() {
    // Fork-join: 0 -> {1, 2} -> 3, heavy middle tasks.
    g.add_task(Task{.compute = 2.0});
    g.add_task(Task{.compute = 8.0});
    g.add_task(Task{.compute = 8.0});
    g.add_task(Task{.compute = 2.0});
    g.add_edge(0, 1, 4.0);
    g.add_edge(0, 2, 4.0);
    g.add_edge(1, 3, 4.0);
    g.add_edge(2, 3, 4.0);
    n.add_device(Device{.speed = 1.0});
    n.add_device(Device{.speed = 1.0});
    n.set_symmetric_link(0, 1, 4.0, 0.0);  // comm = 1 per 4-byte edge
  }
};

TEST(Heft, UpwardRanksDecreaseAlongPaths) {
  Fixture f;
  const auto rank = upward_ranks(f.g, f.n, kLat);
  for (const DataLink& e : f.g.edges()) EXPECT_GT(rank[e.src], rank[e.dst]);
  // Exit rank = its average compute cost.
  EXPECT_DOUBLE_EQ(rank[3], 2.0);
}

TEST(Heft, ParallelizesForkJoinAcrossDevices) {
  Fixture f;
  const HeftResult r = heft_schedule(f.g, f.n, kLat);
  // Running both middle tasks on one device costs >= 18; splitting them costs
  // ~2 + 1 + 8 + 1 + 2 = 14. HEFT must split.
  EXPECT_NE(r.placement.device_of(1), r.placement.device_of(2));
  EXPECT_LE(r.heft_makespan, 14.0 + 1e-9);
}

TEST(Heft, ScheduleRespectsPrecedence) {
  Fixture f;
  const HeftResult r = heft_schedule(f.g, f.n, kLat);
  for (const DataLink& e : f.g.edges()) {
    EXPECT_LE(r.timing[e.src].finish, r.timing[e.dst].start + 1e-9);
  }
}

TEST(Heft, SingleDeviceSerializesEverything) {
  Fixture f;
  DeviceNetwork n1;
  n1.add_device(Device{.speed = 2.0});
  const HeftResult r = heft_schedule(f.g, n1, kLat);
  EXPECT_DOUBLE_EQ(r.heft_makespan, 20.0 / 2.0);
  for (int v = 0; v < 4; ++v) EXPECT_EQ(r.placement.device_of(v), 0);
}

TEST(Heft, RespectsPlacementConstraints) {
  Fixture f;
  f.g.task(1).requires_hw = 0b1;
  f.n.device(0).supports_hw = 0;
  f.n.device(1).supports_hw = 0b1;
  const HeftResult r = heft_schedule(f.g, f.n, kLat);
  EXPECT_EQ(r.placement.device_of(1), 1);
  EXPECT_TRUE(is_feasible(f.g, f.n, r.placement));
}

TEST(Heft, RespectsPinnedTasks) {
  Fixture f;
  f.g.task(0).pinned = 1;
  const HeftResult r = heft_schedule(f.g, f.n, kLat);
  EXPECT_EQ(r.placement.device_of(0), 1);
}

TEST(Heft, InsertionPolicyFillsGaps) {
  // Device 1 idles until a slow transfer arrives; the lower-priority
  // independent task must be inserted into that gap, not appended.
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .pinned = 0});   // 0: entry on d0
  g.add_task(Task{.compute = 10.0, .pinned = 1});  // 1: downstream on d1
  g.add_task(Task{.compute = 1.0, .pinned = 1});   // 2: independent on d1
  g.add_edge(0, 1, 100.0);  // comm = 100/4 = 25
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0});
  n.add_device(Device{.speed = 1.0});
  n.set_symmetric_link(0, 1, 4.0, 0.0);
  const HeftResult r = heft_schedule(g, n, kLat);
  // Task 1 occupies [26, 36] on d1; task 2 is inserted at [0, 1].
  EXPECT_DOUBLE_EQ(r.timing[1].start, 26.0);
  EXPECT_DOUBLE_EQ(r.timing[2].start, 0.0);
  EXPECT_DOUBLE_EQ(r.heft_makespan, 36.0);
}

TEST(Heft, BeatsAverageRandomPlacementOnSyntheticInstances) {
  std::mt19937_64 rng(21);
  TaskGraphParams gp;
  gp.num_tasks = 16;
  NetworkParams np;
  np.num_devices = 6;
  int wins = 0;
  const int cases = 10;
  for (int i = 0; i < cases; ++i) {
    const TaskGraph g = generate_task_graph(gp, rng);
    DeviceNetwork n = generate_device_network(np, rng);
    ensure_all_kinds(n, np.num_hw_kinds, rng);
    const double heft_ms = makespan(g, n, heft_schedule(g, n, kLat).placement, kLat);
    double random_ms = 0.0;
    for (int r = 0; r < 10; ++r) {
      random_ms += makespan(g, n, random_placement(g, n, rng), kLat);
    }
    if (heft_ms < random_ms / 10) ++wins;
  }
  EXPECT_GE(wins, 9);
}

// A task no device can run is rejected with its name, not scheduled on
// device -1: a pin past the last device, and a hardware requirement no
// device meets.
TEST(Heft, TaskWithNoFeasibleDeviceIsRejectedByName) {
  for (const bool pin : {true, false}) {
    Fixture f;
    if (pin) {
      f.g.task(1).pinned = 5;
    } else {
      f.g.task(1).requires_hw = 0b100;
      for (int d = 0; d < f.n.num_devices(); ++d) f.n.device(d).supports_hw = 0b011;
    }
    try {
      heft_schedule(f.g, f.n, kLat);
      ADD_FAILURE() << "expected std::invalid_argument (pin " << pin << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "heft_schedule: task 1 has no feasible device");
    }
  }
}

TEST(Heft, EftSelectDevicePrefersParentLocality) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0});
  g.add_edge(0, 1, 100.0);  // expensive to move
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0});
  n.add_device(Device{.speed = 1.2});  // slightly faster but remote
  n.set_symmetric_link(0, 1, 1.0, 5.0);
  Placement p(2);
  p.set(0, 0);
  p.set(1, 1);
  const Schedule s = simulate(g, n, p, kLat);
  EXPECT_EQ(eft_select_device(g, n, p, kLat, s, 1), 0);
}

TEST(Heft, EftSelectDeviceHonorsConstraints) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .requires_hw = 0b1});
  DeviceNetwork n;
  n.add_device(Device{.speed = 100.0, .supports_hw = 0});
  n.add_device(Device{.speed = 1.0, .supports_hw = 0b1});
  Placement p(1);
  p.set(0, 1);
  const Schedule s = simulate(g, n, p, kLat);
  EXPECT_EQ(eft_select_device(g, n, p, kLat, s, 0), 1);
}

}  // namespace
}  // namespace giph
