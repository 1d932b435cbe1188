// Tests of the schedule invariant checker: real simulator output must pass,
// and each class of corruption must be caught with a violation naming it.

#include "verify/invariants.hpp"

#include <gtest/gtest.h>

#include "testutil.hpp"

namespace giph {
namespace {

const DefaultLatencyModel kLat;

bool mentions(const InvariantReport& r, const std::string& word) {
  return r.summary().find(word) != std::string::npos;
}

TEST(Invariants, AcceptsHandComputedSchedule) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  const Schedule s = simulate(g, n, p, kLat);
  const InvariantReport r = check_schedule(g, n, p, kLat, s);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Invariants, AcceptsRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto c = testutil::random_case(seed, 4 + static_cast<int>(seed) % 20,
                                         1 + static_cast<int>(seed) % 6);
    const Schedule s = simulate(c.graph, c.network, c.placement, kLat);
    const InvariantReport r = check_schedule(c.graph, c.network, c.placement, kLat, s);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ":\n" << r.summary();
  }
}

TEST(Invariants, AcceptsNoisySchedulesWithNoiseBounds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto c = testutil::random_case(seed * 13, 16, 4);
    std::mt19937_64 rng(seed);
    const Schedule s =
        simulate(c.graph, c.network, c.placement, kLat, SimOptions{0.4, &rng});
    const InvariantReport r = check_schedule(c.graph, c.network, c.placement, kLat, s,
                                             CheckOptions{.noise = 0.4});
    EXPECT_TRUE(r.ok()) << "seed " << seed << ":\n" << r.summary();
  }
}

TEST(Invariants, NoisyScheduleFailsExactDurationCheck) {
  const auto c = testutil::random_case(3, 12, 3);
  std::mt19937_64 rng(8);
  const Schedule s =
      simulate(c.graph, c.network, c.placement, kLat, SimOptions{0.4, &rng});
  // Checking a noisy run as if it were noise-free must flag duration drift.
  const InvariantReport r = check_schedule(c.graph, c.network, c.placement, kLat, s);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "duration"));
}

TEST(Invariants, AcceptsSerializedTransferSchedules) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto c = testutil::random_case(seed * 41, 14, 4);
    SharedLinkMap nics;
    add_nic_links(nics, c.network.num_devices());
    SimOptions opt;
    opt.shared_links = &nics;
    const Schedule s = simulate(c.graph, c.network, c.placement, kLat, opt);
    const InvariantReport r = check_schedule(c.graph, c.network, c.placement, kLat, s,
                                             CheckOptions{.shared_links = &nics});
    EXPECT_TRUE(r.ok()) << "seed " << seed << ":\n" << r.summary();
  }
}

TEST(Invariants, SerializedScheduleFailsContentionFreeCheck) {
  // Find a case where NIC queueing actually delays a transfer; checked
  // without the NIC links that delay is an edge-start violation.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto c = testutil::random_case(seed * 101, 14, 4);
    SharedLinkMap nics;
    add_nic_links(nics, c.network.num_devices());
    SimOptions opt;
    opt.shared_links = &nics;
    const Schedule serialized = simulate(c.graph, c.network, c.placement, kLat, opt);
    const Schedule plain = simulate(c.graph, c.network, c.placement, kLat);
    if (serialized.makespan == plain.makespan) continue;  // contention never bit
    const InvariantReport r =
        check_schedule(c.graph, c.network, c.placement, kLat, serialized);
    EXPECT_FALSE(r.ok());
    return;
  }
  FAIL() << "no case with NIC contention found in 50 seeds";
}

// Moves the first transfer that queued behind a busy link back to its
// producer's finish, its finish moving with it, so that it overlaps the
// transfer it queued behind on their common link.
void unqueue_first_transfer(const TaskGraph& g, const DeviceNetwork& n,
                            const Placement& p, Schedule& s) {
  for (int e = 0; e < g.num_edges(); ++e) {
    const DataLink& link = g.edge(e);
    const double ready = s.tasks[link.src].finish;
    if (s.edge_start[e] == ready) continue;
    s.edge_start[e] = ready;
    s.edge_finish[e] =
        ready + kLat.comm_time(g, n, e, p.device_of(link.src), p.device_of(link.dst));
    return;
  }
  FAIL() << "no transfer queued behind a link";
}

TEST(Invariants, DetectsNicLinkOverlap) {
  // t0 on d0 feeds t1 on d1 and t2 on d2: the second send queues behind the
  // first on d0's NIC (link 0), [1, 6] then [6, 11].
  TaskGraph g;
  for (int i = 0; i < 3; ++i) g.add_task(Task{.compute = 1.0});
  g.add_edge(0, 1, 8.0);
  g.add_edge(0, 2, 8.0);
  DeviceNetwork n;
  for (int i = 0; i < 3; ++i) n.add_device(Device{.speed = 1.0});
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) n.set_symmetric_link(a, b, 2.0, 1.0);
  }
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, v);
  SharedLinkMap nics;
  add_nic_links(nics, 3);
  SimOptions opt;
  opt.shared_links = &nics;
  Schedule s = simulate(g, n, p, kLat, opt);
  const CheckOptions check{.shared_links = &nics};
  ASSERT_TRUE(check_schedule(g, n, p, kLat, s, check).ok());

  unqueue_first_transfer(g, n, p, s);
  const InvariantReport r = check_schedule(g, n, p, kLat, s, check);
  EXPECT_TRUE(mentions(r, "link 0: transfer [1, 6) overlaps [1, 6)")) << r.summary();
}

TEST(Invariants, DetectsPhysicalLinkOverlap) {
  // A star around hub d0: t0 on d1 and t1 on d2 both feed t2 on d3, so both
  // transfers cross physical link 2 (d0 - d3) and the second queues.
  TaskGraph g;
  for (int i = 0; i < 3; ++i) g.add_task(Task{.compute = 1.0});
  g.add_edge(0, 2, 4.0);
  g.add_edge(1, 2, 4.0);
  DeviceNetwork n(4);
  const std::vector<PhysicalLink> star = {
      {0, 1, 2.0, 1.0, true}, {0, 2, 2.0, 1.0, true}, {0, 3, 2.0, 1.0, true}};
  apply_topology(n, star);
  const SharedLinkMap map = build_shared_link_map(4, star);
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, v + 1);
  SimOptions opt;
  opt.shared_links = &map;
  Schedule s = simulate(g, n, p, kLat, opt);
  const CheckOptions check{.shared_links = &map};
  ASSERT_TRUE(check_schedule(g, n, p, kLat, s, check).ok());

  unqueue_first_transfer(g, n, p, s);
  const InvariantReport r = check_schedule(g, n, p, kLat, s, check);
  EXPECT_TRUE(mentions(r, "link 2: transfer")) << r.summary();
  EXPECT_TRUE(mentions(r, "overlaps")) << r.summary();
}

TEST(Invariants, DetectsPrecedenceViolation) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  Schedule s = simulate(g, n, p, kLat);
  // Pull task 1's execution before its input arrives.
  s.tasks[1].start = 1.0;
  s.tasks[1].finish = 3.0;
  const InvariantReport r = check_schedule(g, n, p, kLat, s);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "before its"));
}

TEST(Invariants, DetectsDeviceOverlap) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, 0);
  Schedule s = simulate(g, n, p, kLat);
  // Overlap tasks 1 and 2 on the single-core device 0 (and break the chain's
  // arrival times too - both should be reported).
  s.tasks[2].start = s.tasks[1].start;
  s.tasks[2].finish = s.tasks[1].start + 6.0;
  const InvariantReport r = check_schedule(g, n, p, kLat, s);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "concurrently"));
}

TEST(Invariants, DetectsFifoViolation) {
  // Two independent chains funneling onto device 0: swap the service order of
  // the two queued tasks while keeping everything else consistent enough.
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});  // ready 0
  g.add_task(Task{.compute = 1.0});  // ready 0, queued behind 0
  g.add_task(Task{.compute = 1.0});  // ready 0, queued behind 1
  DeviceNetwork n;
  n.add_device(Device{.speed = 1.0});
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, 0);
  Schedule s = simulate(g, n, p, kLat);
  ASSERT_EQ(s.tasks[1].start, 1.0);
  ASSERT_EQ(s.tasks[2].start, 2.0);
  std::swap(s.tasks[1], s.tasks[2]);
  // Equal ready times are unordered, so nudge task 1's readiness via an edge:
  // instead corrupt directly - task 2 ready at 0 starting after task 1 is
  // legal; what is illegal is overlap-free swapped *finish* bookkeeping only
  // if durations break. Here durations still hold and FIFO cannot trigger on
  // equal ready times, so assert the checker still accepts it (documenting
  // the tie-break freedom)...
  EXPECT_TRUE(check_schedule(g, n, p, kLat, s).ok());

  // ...and build a real FIFO violation: distinct ready times via a remote
  // parent, then swap service order.
  TaskGraph g2;
  g2.add_task(Task{.compute = 1.0});  // on d1, feeds task 1
  g2.add_task(Task{.compute = 1.0});  // on d0, ready when its input arrives
  g2.add_task(Task{.compute = 8.0});  // on d0, entry, ready at 0
  g2.add_edge(0, 1, 2.0);
  const DeviceNetwork n2 = testutil::two_devices();
  Placement p2(3);
  p2.set(0, 1);
  p2.set(1, 0);
  p2.set(2, 0);
  Schedule s2 = simulate(g2, n2, p2, kLat);
  ASSERT_GT(s2.tasks[1].start, s2.tasks[2].start);  // task 2 (ready 0) served first
  // Claim task 1 ran first instead: ready(2)=0 < ready(1) but start(2) > start(1).
  s2.tasks[1].start = 0.5 + 2.0;  // after its input arrives at 2.5
  s2.tasks[1].finish = s2.tasks[1].start + 1.0;
  s2.tasks[2].start = s2.tasks[1].finish;
  s2.tasks[2].finish = s2.tasks[2].start + 8.0;
  s2.makespan = s2.tasks[2].finish;
  // Rebuild dependent edge-less fields consistent with durations: task 1's
  // input edge is unchanged; no outgoing edges exist.
  const InvariantReport r2 = check_schedule(g2, n2, p2, kLat, s2);
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(mentions(r2, "FIFO"));
}

TEST(Invariants, DetectsIdleDeviceWithWaitingTask) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  Schedule s = simulate(g, n, p, kLat);
  // Delay task 1 past its ready time with no one occupying the device.
  s.tasks[1].start += 1.0;
  s.tasks[1].finish += 1.0;
  s.edge_start[1] += 1.0;
  s.edge_finish[1] += 1.0;
  s.tasks[2].start += 1.0;
  s.tasks[2].finish += 1.0;
  s.makespan += 1.0;
  const InvariantReport r = check_schedule(g, n, p, kLat, s);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "idle"));
}

TEST(Invariants, DetectsWrongDurationAndMakespan) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  Schedule good = simulate(g, n, p, kLat);

  Schedule bad = good;
  bad.tasks[2].finish += 0.5;  // also desyncs the makespan
  const InvariantReport r = check_schedule(g, n, p, kLat, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "duration"));
  EXPECT_TRUE(mentions(r, "makespan"));

  Schedule wrong_span = good;
  wrong_span.makespan *= 2.0;
  EXPECT_TRUE(mentions(check_schedule(g, n, p, kLat, wrong_span), "makespan"));
}

TEST(Invariants, DetectsInfeasiblePlacementAndShapeMismatch) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .requires_hw = 0b10});
  DeviceNetwork n;
  n.add_device(Device{.supports_hw = 0b01});
  Placement p(1);
  p.set(0, 0);
  Schedule s;
  s.tasks.assign(1, TaskTiming{0.0, 1.0});
  s.makespan = 1.0;
  const InvariantReport r = check_schedule(g, n, p, kLat, s);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(mentions(r, "requires hw"));

  Schedule short_sched;  // wrong task count
  EXPECT_TRUE(mentions(check_schedule(g, n, p, kLat, short_sched), "shape"));
}

TEST(Invariants, AcceptsFaultResults) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  const FaultPlan plan = parse_fault_plan("crash:1@3");
  const FaultSimResult res = simulate_with_faults(g, n, p, kLat, plan);
  ASSERT_FALSE(res.completed());
  const InvariantReport r = check_fault_result(g, n, p, kLat, res);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(Invariants, DetectsCorruptedStrandedBookkeeping) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  FaultSimResult res = simulate_with_faults(g, n, p, kLat, parse_fault_plan("crash:1@3"));
  ASSERT_FALSE(res.stranded.empty());
  FaultSimResult missing = res;
  missing.stranded.clear();
  EXPECT_TRUE(mentions(check_fault_result(g, n, p, kLat, missing), "stranded"));

  // A completed child of a stranded parent is impossible.
  FaultSimResult impossible = res;
  const int child = res.stranded.front() == 1 ? 2 : 1;
  impossible.schedule.tasks[child] = TaskTiming{30.0, 33.0};
  EXPECT_TRUE(mentions(check_fault_result(g, n, p, kLat, impossible), "parent"));
}

}  // namespace
}  // namespace giph
