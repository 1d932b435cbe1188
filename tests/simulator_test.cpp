#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "testutil.hpp"

namespace giph {
namespace {

using testutil::alternating3;
using testutil::chain3;
using testutil::two_devices;

const DefaultLatencyModel kLat;

TEST(Simulator, ChainAcrossDevicesHandComputed) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  const Schedule s = simulate(g, n, p, kLat);
  // t0: [0, 2] on d0. Edge 0->1: 1 + 8/2 = 5, arrives 7.
  // t1: [7, 9] on d1 (w = 4/2). Edge 1->2: 1 + 16/2 = 9, arrives 18.
  // t2: [18, 24] on d0.
  EXPECT_DOUBLE_EQ(s.tasks[0].start, 0.0);
  EXPECT_DOUBLE_EQ(s.tasks[0].finish, 2.0);
  EXPECT_DOUBLE_EQ(s.edge_start[0], 2.0);
  EXPECT_DOUBLE_EQ(s.edge_finish[0], 7.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 7.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].finish, 9.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 18.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].finish, 24.0);
  EXPECT_DOUBLE_EQ(s.makespan, 24.0);
}

TEST(Simulator, LocalCommunicationIsFree) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, 0);
  EXPECT_DOUBLE_EQ(simulate(g, n, p, kLat).makespan, 12.0);
}

TEST(Simulator, FifoQueueRunsInRunnableOrder) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 2.0});
  g.add_task(Task{.compute = 3.0});
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 2, 5.0);
  const DeviceNetwork n = two_devices();
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, 0);

  const Schedule s = simulate(g, n, p, kLat);
  // Both children become runnable at t = 1 (local transfers); edge (0, 1) was
  // created first, so task 1 runs first.
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 1.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].finish, 3.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 3.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].finish, 6.0);
  EXPECT_DOUBLE_EQ(s.makespan, 6.0);
}

TEST(Simulator, ComputationOverlapsCommunication) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 2.0});   // -> d1, behind a slow link
  g.add_task(Task{.compute = 10.0});  // -> d0, should not wait for the transfer
  g.add_edge(0, 1, 6.0);  // comm = 1 + 6/2 = 4
  g.add_edge(0, 2, 6.0);  // local
  const DeviceNetwork n = two_devices();
  Placement p(3);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 0);

  const Schedule s = simulate(g, n, p, kLat);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 1.0);  // starts while 0->1 transfer in flight
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 5.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].finish, 6.0);
  EXPECT_DOUBLE_EQ(s.makespan, 11.0);
}

TEST(Simulator, ConcurrentSendsDoNotQueue) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0});
  g.add_edge(0, 1, 8.0);
  g.add_edge(0, 2, 8.0);
  DeviceNetwork n;
  for (int i = 0; i < 3; ++i) n.add_device(Device{.speed = 1.0});
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) n.set_symmetric_link(a, b, 2.0, 1.0);
  }
  Placement p(3);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 2);
  const Schedule s = simulate(g, n, p, kLat);
  // Both transfers start when task 0 finishes and proceed in parallel.
  EXPECT_DOUBLE_EQ(s.edge_start[0], 1.0);
  EXPECT_DOUBLE_EQ(s.edge_start[1], 1.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 6.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 6.0);
}

TEST(Simulator, SerializedTransfersQueueAtTheNic) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0});
  g.add_edge(0, 1, 8.0);
  g.add_edge(0, 2, 8.0);
  DeviceNetwork n;
  for (int i = 0; i < 3; ++i) n.add_device(Device{.speed = 1.0});
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) n.set_symmetric_link(a, b, 2.0, 1.0);
  }
  Placement p(3);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 2);
  SharedLinkMap nics;
  add_nic_links(nics, n.num_devices());
  SimOptions opt;
  opt.shared_links = &nics;
  const Schedule s = simulate(g, n, p, kLat, opt);
  // Each transfer takes 1 + 8/2 = 5; the second waits for the NIC.
  EXPECT_DOUBLE_EQ(s.edge_start[0], 1.0);
  EXPECT_DOUBLE_EQ(s.edge_finish[0], 6.0);
  EXPECT_DOUBLE_EQ(s.edge_start[1], 6.0);
  EXPECT_DOUBLE_EQ(s.edge_finish[1], 11.0);
  EXPECT_DOUBLE_EQ(s.makespan, 12.0);
}

TEST(Simulator, SerializedTransfersDoNotDelayLocalData) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0});  // remote child
  g.add_task(Task{.compute = 1.0});  // local child
  g.add_edge(0, 1, 8.0);
  g.add_edge(0, 2, 8.0);
  const DeviceNetwork n = two_devices();
  Placement p(3);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 0);
  SharedLinkMap nics;
  add_nic_links(nics, n.num_devices());
  SimOptions opt;
  opt.shared_links = &nics;
  const Schedule s = simulate(g, n, p, kLat, opt);
  // The local transfer bypasses the NIC and completes immediately.
  EXPECT_DOUBLE_EQ(s.edge_finish[1], 1.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 1.0);
}

TEST(Simulator, ContentionNeverBeatsContentionFreeModel) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  for (int i = 1; i <= 4; ++i) {
    g.add_task(Task{.compute = 2.0});
    g.add_edge(0, i, 6.0);
  }
  DeviceNetwork n;
  for (int i = 0; i < 5; ++i) n.add_device(Device{.speed = 1.0});
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) n.set_symmetric_link(a, b, 3.0, 0.5);
  }
  Placement p(5);
  for (int i = 0; i < 5; ++i) p.set(i, i);
  SharedLinkMap nics;
  add_nic_links(nics, n.num_devices());
  SimOptions serialized;
  serialized.shared_links = &nics;
  EXPECT_GT(simulate(g, n, p, kLat, serialized).makespan,
            simulate(g, n, p, kLat).makespan);
}

TEST(Simulator, MultipleEntryTasksStartInIdOrder) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0});
  const DeviceNetwork n = two_devices();
  Placement p(2);
  p.set(0, 0);
  p.set(1, 0);
  const Schedule s = simulate(g, n, p, kLat);
  EXPECT_DOUBLE_EQ(s.tasks[0].start, 0.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 1.0);
}

TEST(Simulator, MultiCoreDeviceRunsTasksConcurrently) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 5.0});
  g.add_task(Task{.compute = 5.0});
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0, .cores = 2});
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, 0);
  const Schedule s = simulate(g, n, p, kLat);
  // Both children start at t = 1 on separate cores.
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 1.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 1.0);
  EXPECT_DOUBLE_EQ(s.makespan, 6.0);
}

TEST(Simulator, CoreLimitStillQueuesExcessTasks) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  for (int i = 1; i <= 3; ++i) {
    g.add_task(Task{.compute = 4.0});
    g.add_edge(0, i, 1.0);
  }
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0, .cores = 2});
  Placement p(4);
  for (int v = 0; v < 4; ++v) p.set(v, 0);
  const Schedule s = simulate(g, n, p, kLat);
  // Two children run in parallel [1, 5]; the third waits for a free core.
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 1.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 1.0);
  EXPECT_DOUBLE_EQ(s.tasks[3].start, 5.0);
  EXPECT_DOUBLE_EQ(s.makespan, 9.0);
}

TEST(Simulator, SingleCoreDefaultMatchesPaperModel) {
  // Same workload with the default 1-core device serializes the children.
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 5.0});
  g.add_task(Task{.compute = 5.0});
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0});
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, 0);
  EXPECT_DOUBLE_EQ(simulate(g, n, p, kLat).makespan, 11.0);
}

TEST(Simulator, StartupTimeAddsToComputeTime) {
  TaskGraph g;
  g.add_task(Task{.compute = 4.0});
  DeviceNetwork n;
  n.add_device(Device{.speed = 2.0, .startup = 3.0});
  Placement p(1);
  p.set(0, 0);
  EXPECT_DOUBLE_EQ(simulate(g, n, p, kLat).makespan, 4.0 / 2.0 + 3.0);
}

TEST(Simulator, InfeasiblePlacementThrows) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .requires_hw = 0b1});
  DeviceNetwork n;
  n.add_device(Device{.supports_hw = 0});
  Placement p(1);
  p.set(0, 0);
  EXPECT_THROW(simulate(g, n, p, kLat), std::invalid_argument);
}

TEST(Simulator, NoiseRequiresRng) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  DeviceNetwork n(1);
  n.device(0).speed = 1.0;
  Placement p(1);
  p.set(0, 0);
  EXPECT_THROW(simulate(g, n, p, kLat, SimOptions{0.5, nullptr}), std::invalid_argument);
}

TEST(Simulator, NoiseAtLeastOneIsRejectedUpFront) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  DeviceNetwork n(1);
  n.device(0).speed = 1.0;
  Placement p(1);
  p.set(0, 0);
  std::mt19937_64 rng(5);
  // A multiplicative draw from [x(1-noise), x(1+noise)] could go negative.
  EXPECT_THROW(simulate(g, n, p, kLat, SimOptions{1.0, &rng}), std::invalid_argument);
  EXPECT_THROW(simulate(g, n, p, kLat, SimOptions{1.5, &rng}), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(simulate(g, n, p, kLat, SimOptions{nan, &rng}), std::invalid_argument);
  // Just below the boundary is legal.
  EXPECT_NO_THROW(simulate(g, n, p, kLat, SimOptions{0.999, &rng}));
}

TEST(Simulator, NoiseStaysWithinBounds) {
  TaskGraph g;
  g.add_task(Task{.compute = 10.0});
  DeviceNetwork n(1);
  n.device(0).speed = 1.0;
  Placement p(1);
  p.set(0, 0);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 200; ++i) {
    const double m = simulate(g, n, p, kLat, SimOptions{0.2, &rng}).makespan;
    EXPECT_GE(m, 8.0 - 1e-12);
    EXPECT_LE(m, 12.0 + 1e-12);
  }
}

TEST(Simulator, NoiseIsSeedDeterministic) {
  TaskGraph g;
  g.add_task(Task{.compute = 5.0});
  g.add_task(Task{.compute = 5.0});
  g.add_edge(0, 1, 4.0);
  const DeviceNetwork n = two_devices();
  Placement p(2);
  p.set(0, 0);
  p.set(1, 1);
  std::mt19937_64 a(7), b(7);
  EXPECT_DOUBLE_EQ(simulate(g, n, p, kLat, SimOptions{0.3, &a}).makespan,
                   simulate(g, n, p, kLat, SimOptions{0.3, &b}).makespan);
}

TEST(Simulator, EarliestStartOnMatchesParentFinishPlusComm) {
  TaskGraph g;
  g.add_task(Task{.compute = 2.0});
  g.add_task(Task{.compute = 2.0});
  g.add_edge(0, 1, 8.0);
  const DeviceNetwork n = two_devices();
  Placement p(2);
  p.set(0, 0);
  p.set(1, 1);
  const Schedule s = simulate(g, n, p, kLat);
  // On d0 (parent-local): est = parent finish = 2; on d1: 2 + 1 + 8/2 = 7.
  EXPECT_DOUBLE_EQ(earliest_start_on(s, g, n, p, kLat, 1, 0), 2.0);
  EXPECT_DOUBLE_EQ(earliest_start_on(s, g, n, p, kLat, 1, 1), 7.0);
  EXPECT_DOUBLE_EQ(earliest_start_on(s, g, n, p, kLat, 0, 1), 0.0);  // entry
}

TEST(Simulator, MakespanMatchesCriticalPathWhenNoContention) {
  // One task per device: no queueing, so makespan equals the DAG critical
  // path with exact node/edge costs.
  TaskGraph g;
  g.add_task(Task{.compute = 3.0});
  g.add_task(Task{.compute = 5.0});
  g.add_edge(0, 1, 10.0);
  const DeviceNetwork n = two_devices();
  Placement p(2);
  p.set(0, 0);
  p.set(1, 1);
  const double expected = g.critical_path_cost(
      [&](int v) { return kLat.compute_time(g, n, v, p.device_of(v)); },
      [&](int e) {
        return kLat.comm_time(g, n, e, p.device_of(g.edge(e).src),
                              p.device_of(g.edge(e).dst));
      });
  EXPECT_DOUBLE_EQ(simulate(g, n, p, kLat).makespan, expected);
}

}  // namespace
}  // namespace giph
