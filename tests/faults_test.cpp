#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "testutil.hpp"

namespace giph {
namespace {

using testutil::alternating3;
using testutil::chain3;
using testutil::expect_schedules_bitwise_equal;
using testutil::two_devices;

const DefaultLatencyModel kLat;

TEST(Faults, EmptyPlanReducesToSimulateNoiseFree) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  const Schedule expected = simulate(g, n, p, kLat);
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, FaultPlan{});
  ASSERT_TRUE(r.completed());
  expect_schedules_bitwise_equal(r.schedule, expected);
}

TEST(Faults, EmptyPlanReducesToSimulateUnderNoise) {
  const auto [g, n, p] = testutil::random_case(99);

  // Identical noise draws require identical engine states and draw order.
  std::mt19937_64 rng_a(1234), rng_b(1234);
  const Schedule expected = simulate(g, n, p, kLat, SimOptions{0.3, &rng_a});
  const FaultSimResult r =
      simulate_with_faults(g, n, p, kLat, FaultPlan{}, SimOptions{0.3, &rng_b});
  ASSERT_TRUE(r.completed());
  expect_schedules_bitwise_equal(r.schedule, expected);
}

TEST(Faults, DeterministicAcrossRuns) {
  const auto [g, n, p] = testutil::random_case(7, 20, 6);

  std::mt19937_64 plan_rng_a(42), plan_rng_b(42);
  FaultPlanParams fp;
  fp.horizon = 50.0;
  fp.crashes = 1;
  fp.slowdowns = 2;
  fp.link_degrades = 2;
  const FaultPlan plan_a = generate_fault_plan(n, fp, plan_rng_a);
  const FaultPlan plan_b = generate_fault_plan(n, fp, plan_rng_b);
  ASSERT_EQ(plan_a.events.size(), plan_b.events.size());
  for (std::size_t i = 0; i < plan_a.events.size(); ++i) {
    EXPECT_EQ(describe(plan_a.events[i]), describe(plan_b.events[i]));
  }

  // Same seed + same plan: bitwise-identical degraded schedules. Each replay
  // is one full simulation.
  std::mt19937_64 sim_a(5), sim_b(5);
  const std::uint64_t runs_before = full_simulation_count();
  const FaultSimResult a =
      simulate_with_faults(g, n, p, kLat, plan_a, SimOptions{0.2, &sim_a});
  EXPECT_EQ(full_simulation_count(), runs_before + 1);
  const FaultSimResult b =
      simulate_with_faults(g, n, p, kLat, plan_b, SimOptions{0.2, &sim_b});
  EXPECT_EQ(a.stranded, b.stranded);
  EXPECT_EQ(a.failed_devices, b.failed_devices);
  expect_schedules_bitwise_equal(a.schedule, b.schedule);
}

TEST(Faults, CrashStrandsRunningAndDownstreamTasks) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // Task 1 runs on device 1 during [7, 9]; crash device 1 at t = 8.
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 8.0,
                                   .device = 1});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  EXPECT_FALSE(r.completed());
  EXPECT_EQ(r.stranded, (std::vector<int>{1, 2}));  // task 2 starved of input
  EXPECT_EQ(r.failed_devices, std::vector<int>{1});
  // Task 0 completed before the crash.
  EXPECT_DOUBLE_EQ(r.schedule.tasks[0].finish, 2.0);
  EXPECT_LT(r.schedule.tasks[1].finish, 0.0);
  EXPECT_LT(r.schedule.tasks[2].finish, 0.0);
}

TEST(Faults, TaskFinishingExactlyAtCrashTimeCompletes) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 9.0,
                                   .device = 1});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  // Task 1 finishes exactly at t = 9 and its output is already on the wire;
  // the whole chain completes.
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.makespan, 24.0);
}

TEST(Faults, GracefulLeaveLetsRunningTaskFinish) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceLeave, .time = 8.0,
                                   .device = 1});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  // Leave at t = 8 while task 1 runs [7, 9]: it finishes and sends its
  // output, so the chain still completes.
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.makespan, 24.0);
  EXPECT_EQ(r.failed_devices, std::vector<int>{1});
}

TEST(Faults, LeaveStrandsQueuedTasks) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // Leave before task 1 starts (it starts at t = 7): stranded.
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceLeave, .time = 5.0,
                                   .device = 1});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  EXPECT_EQ(r.stranded, (std::vector<int>{1, 2}));
}

TEST(Faults, PermanentSlowdownStretchesRemainingWork) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // Slowdown x3 of device 1 at t = 8: task 1 ran [7, 9], one unit of work
  // remains at t = 8 and now takes 3, so it finishes at 11. Everything
  // downstream shifts by 2: edge arrives 11 + 9 = 20, task 2 runs [20, 26].
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kSlowdown, .time = 8.0,
                                   .device = 1, .factor = 3.0});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.tasks[1].finish, 11.0);
  EXPECT_DOUBLE_EQ(r.schedule.tasks[2].start, 20.0);
  EXPECT_DOUBLE_EQ(r.schedule.makespan, 26.0);
}

TEST(Faults, TransientSlowdownRevertsAtUntil) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // Slowdown x3 during [8, 9.5]: at t = 8 one unit of remaining work is
  // stretched to 3 (finish 11); at t = 9.5, 1.5 of stretched work remains,
  // shrinking back to 0.5 - task 1 finishes at 10, a 1-unit total delay.
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kSlowdown, .time = 8.0,
                                   .device = 1, .factor = 3.0, .until = 9.5});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.tasks[1].finish, 10.0);
  EXPECT_DOUBLE_EQ(r.schedule.makespan, 25.0);
}

TEST(Faults, LinkDegradeStretchesTransfersOnTheLink) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // Degrade link 1 -> 0 by x2 from t = 0: edge 1 (16 bytes, nominal 9 = 1
  // startup + 8 wire) keeps its startup and doubles its wire time, 1 + 16 =
  // 17, so task 2 starts at 9 + 17 = 26. Edge 0 -> 1 is unaffected.
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 0.0,
                                   .link_src = 1, .link_dst = 0, .factor = 2.0});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.tasks[1].start, 7.0);
  EXPECT_DOUBLE_EQ(r.schedule.tasks[2].start, 26.0);
}

TEST(Faults, PermanentDegradeMatchesPostFaultNetwork) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // A degrade active for the whole run is the degraded link itself: replaying
  // it matches simulating the post-fault network, with and without an extra
  // startup delay.
  for (const double delay_add : {0.0, 3.0}) {
    FaultPlan plan;
    plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 0.0,
                                     .link_src = 1, .link_dst = 0, .factor = 2.0,
                                     .delay_add = delay_add});
    const PostFaultNetwork pf = post_fault_network(n, plan);
    const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
    ASSERT_TRUE(r.completed());
    expect_schedules_bitwise_equal(r.schedule, simulate(g, pf.network, p, kLat));
  }
}

TEST(Faults, OverlappingDegradesMultiplyFactorsAndAddDelays) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // On link 1 -> 0, x2 holds from t = 0 and x3 (+2 delay) during [5, 24].
  // Edge 1 dispatches at t = 9 under both: startup 1 + 2 = 3, wire 8 x 6 =
  // 48, so it would arrive at 60. When x3 ends at t = 24, 36 of the
  // stretched wire time remain and shrink by 2/6 to 12: arrival 36, task 2
  // runs [36, 42].
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 0.0,
                                   .link_src = 1, .link_dst = 0, .factor = 2.0});
  plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 5.0,
                                   .link_src = 1, .link_dst = 0, .factor = 3.0,
                                   .delay_add = 2.0, .until = 24.0});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.edge_start[1], 9.0);
  EXPECT_DOUBLE_EQ(r.schedule.edge_finish[1], 36.0);
  EXPECT_DOUBLE_EQ(r.schedule.tasks[2].finish, 42.0);
}

TEST(Faults, DegradesMeetingAtOneInstantFoldIntoOneSegment) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // x2 on link 1 -> 0 ends at t = 9 exactly when x4 starts: one condition
  // change at t = 9, in force before edge 1 dispatches that instant. Startup
  // 1, wire 8 x 4 = 32: arrival 42.
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 0.0,
                                   .link_src = 1, .link_dst = 0, .factor = 2.0,
                                   .until = 9.0});
  plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 9.0,
                                   .link_src = 1, .link_dst = 0, .factor = 4.0});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.edge_finish[1], 42.0);
  EXPECT_DOUBLE_EQ(r.schedule.tasks[2].start, 42.0);
}

TEST(Faults, LinkDegradeRescalesInFlightTransfer) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // Edge 1 flies 1 -> 0 during [9, 18]. Degrade x2 at t = 13.5: half the
  // transfer remains (4.5 nominal), stretched to 9 - arrival 22.5, task 2
  // runs [22.5, 28.5].
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 13.5,
                                   .link_src = 1, .link_dst = 0, .factor = 2.0});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.edge_finish[1], 22.5);
  EXPECT_DOUBLE_EQ(r.schedule.tasks[2].finish, 28.5);
}

TEST(Faults, LinkDegradeDuringStartupRescalesOnlyWireTime) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  const Placement p = alternating3();

  // Edge 1 (16 bytes) flies 1 -> 0 during [9, 18]: startup delay 1 commits
  // the window [9, 10], the wire phase runs [10, 18]. Degrade x2 at t = 9.5,
  // *inside* the startup window: only the wire time may stretch, so the
  // rescale anchors at the wire begin t = 10 and doubles the full 8 units of
  // wire time - arrival 10 + 16 = 26, task 2 runs [26, 32]. (Anchoring at
  // the event time 9.5 would stretch 8.5 units, a spurious 26.5.)
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 9.5,
                                   .link_src = 1, .link_dst = 0, .factor = 2.0});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  ASSERT_TRUE(r.completed());
  EXPECT_DOUBLE_EQ(r.schedule.edge_finish[1], 26.0);
  EXPECT_DOUBLE_EQ(r.schedule.tasks[2].start, 26.0);
  EXPECT_DOUBLE_EQ(r.schedule.tasks[2].finish, 32.0);
}

TEST(Faults, ValidationErrorsNameTheEventAndField) {
  const DeviceNetwork n = two_devices();
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 1.0,
                                   .device = 9});
  try {
    validate_fault_plan(plan, n);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fault plan event 0"), std::string::npos) << what;
    EXPECT_NE(what.find("9"), std::string::npos) << what;
  }
}

TEST(Faults, ValidationRejectsBadPlans) {
  const DeviceNetwork n = two_devices();
  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 1.0,
                                   .device = 9});
  EXPECT_THROW(validate_fault_plan(plan, n), std::invalid_argument);

  plan.events.clear();
  plan.events.push_back(FaultEvent{.kind = FaultKind::kSlowdown, .time = 1.0,
                                   .device = 0, .factor = -2.0});
  EXPECT_THROW(validate_fault_plan(plan, n), std::invalid_argument);

  plan.events.clear();
  plan.events.push_back(FaultEvent{.kind = FaultKind::kLinkDegrade, .time = 1.0,
                                   .link_src = 0, .link_dst = 0, .factor = 2.0});
  EXPECT_THROW(validate_fault_plan(plan, n), std::invalid_argument);

  plan.events.clear();
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = -1.0,
                                   .device = 0});
  EXPECT_THROW(validate_fault_plan(plan, n), std::invalid_argument);

  plan.events.clear();
  plan.events.push_back(FaultEvent{.kind = FaultKind::kSlowdown, .time = 1.0,
                                   .device = 0, .factor = 2.0, .until = std::nan("")});
  EXPECT_THROW(validate_fault_plan(plan, n), std::invalid_argument);

  // A device joined earlier in time may be referenced by later events.
  plan.events.clear();
  FaultEvent join{.kind = FaultKind::kDeviceJoin, .time = 1.0};
  join.joined.speed = 1.0;
  plan.events.push_back(join);
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 2.0,
                                   .device = 2});
  EXPECT_NO_THROW(validate_fault_plan(plan, n));
}

TEST(Faults, NoiseWithoutRngThrows) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  EXPECT_THROW(
      simulate_with_faults(g, n, alternating3(), kLat, FaultPlan{}, SimOptions{0.5, nullptr}),
      std::invalid_argument);
}

TEST(Faults, ParseFaultPlanRoundTrip) {
  const FaultPlan plan =
      parse_fault_plan("crash:2@30,leave:0@45,slow:1@10x3:60,link:0-3@20x4+5,join@50");
  ASSERT_EQ(plan.events.size(), 5u);
  // Events come back sorted by time.
  EXPECT_EQ(plan.events[0].kind, FaultKind::kSlowdown);
  EXPECT_EQ(plan.events[0].device, 1);
  EXPECT_DOUBLE_EQ(plan.events[0].factor, 3.0);
  EXPECT_DOUBLE_EQ(plan.events[0].until, 60.0);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(plan.events[1].link_src, 0);
  EXPECT_EQ(plan.events[1].link_dst, 3);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 4.0);
  EXPECT_DOUBLE_EQ(plan.events[1].delay_add, 5.0);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kDeviceCrash);
  EXPECT_EQ(plan.events[2].device, 2);
  EXPECT_DOUBLE_EQ(plan.events[2].time, 30.0);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kDeviceLeave);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kDeviceJoin);

  EXPECT_THROW(parse_fault_plan("crash:0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("crash@5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("slow:1@5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("explode:1@5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("link:1@5x2"), std::invalid_argument);
}

TEST(Faults, PostFaultNetworkRemovesCrashedAndAddsJoined) {
  DeviceNetwork n = two_devices();
  FaultPlan plan;
  FaultEvent join{.kind = FaultKind::kDeviceJoin, .time = 1.0};
  join.joined.speed = 4.0;
  join.join_bandwidth = 8.0;
  join.join_delay = 0.5;
  plan.events.push_back(join);
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 2.0,
                                   .device = 0});
  plan.events.push_back(FaultEvent{.kind = FaultKind::kSlowdown, .time = 3.0,
                                   .device = 1, .factor = 2.0});  // permanent

  // The universe keeps the crashed device, marked down, and appends the
  // joined one.
  const PostFaultNetwork pf = post_fault_network(n, plan);
  ASSERT_EQ(pf.network.num_devices(), 3);
  EXPECT_EQ(pf.up, (std::vector<char>{0, 1, 1}));
  // Permanent slowdown halves the surviving device's speed.
  EXPECT_DOUBLE_EQ(pf.network.device(0).speed, n.device(0).speed);
  EXPECT_DOUBLE_EQ(pf.network.device(1).speed, 1.0);
  EXPECT_DOUBLE_EQ(pf.network.device(2).speed, 4.0);
  EXPECT_DOUBLE_EQ(pf.network.bandwidth(1, 2), 8.0);
  EXPECT_DOUBLE_EQ(pf.network.delay(2, 1), 0.5);
  EXPECT_DOUBLE_EQ(pf.network.bandwidth(0, 2), 8.0);
  EXPECT_DOUBLE_EQ(pf.network.bandwidth(0, 1), n.bandwidth(0, 1));

  // Compacting the up devices maps universe ids 0, 1, 2 to -1, 0, 1.
  Placement p(2);
  p.set(0, 0);
  p.set(1, 1);
  const Placement remapped = remap_placement(p, {-1, 0, 1});
  EXPECT_EQ(remapped.device_of(0), -1);  // stranded
  EXPECT_EQ(remapped.device_of(1), 0);
}

TEST(Faults, RemapPinnedLostDeviceBecomesInfeasible) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .pinned = 0});
  g.add_task(Task{.compute = 1.0, .pinned = 1});
  const std::vector<int> old_to_new{-1, 0};
  const TaskGraph out = remap_pinned(g, old_to_new);
  EXPECT_GT(out.task(0).pinned, 1'000'000);  // out of range: no feasible device
  EXPECT_EQ(out.task(1).pinned, 0);

  DeviceNetwork survivor;
  survivor.add_device(Device{.speed = 1.0});
  EXPECT_THROW(feasible_sets(out, survivor), std::runtime_error);
}

TEST(Faults, CrashAtTimeZeroStrandsEverythingOnDevice) {
  const TaskGraph g = chain3();
  const DeviceNetwork n = two_devices();
  Placement p(3);
  for (int v = 0; v < 3; ++v) p.set(v, 0);

  FaultPlan plan;
  plan.events.push_back(FaultEvent{.kind = FaultKind::kDeviceCrash, .time = 0.0,
                                   .device = 0});
  const FaultSimResult r = simulate_with_faults(g, n, p, kLat, plan);
  EXPECT_EQ(r.stranded, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(r.schedule.makespan, 0.0);
}

TEST(Faults, GeneratedPlanSparesOneDevice) {
  std::mt19937_64 rng(11);
  const NetworkParams np{.num_devices = 3};
  const DeviceNetwork n = generate_device_network(np, rng);
  FaultPlanParams fp;
  fp.horizon = 10.0;
  fp.crashes = 99;  // asks for more than available
  const FaultPlan plan = generate_fault_plan(n, fp, rng);
  int removals = 0;
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::kDeviceCrash || e.kind == FaultKind::kDeviceLeave) {
      ++removals;
    }
  }
  EXPECT_EQ(removals, 2);  // one device always survives
}

}  // namespace
}  // namespace giph
