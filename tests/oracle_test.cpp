// Differential tests of the reference oracle simulator: oracle_simulate must
// agree bitwise with the production simulate()/simulate_into() on every
// input, while being an independent derivation of the Appendix B.5 model.

#include "verify/oracle.hpp"

#include <gtest/gtest.h>

#include "graph/topology.hpp"
#include "testutil.hpp"

namespace giph {
namespace {

using testutil::expect_schedules_bitwise_equal;

const DefaultLatencyModel kLat;

TEST(Oracle, MatchesHandComputedChain) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  const Schedule s = oracle_simulate(g, n, p, kLat);
  // Same derivation as Simulator.ChainAcrossDevicesHandComputed.
  EXPECT_DOUBLE_EQ(s.tasks[0].finish, 2.0);
  EXPECT_DOUBLE_EQ(s.edge_finish[0], 7.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 7.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].start, 18.0);
  EXPECT_DOUBLE_EQ(s.makespan, 24.0);
  expect_schedules_bitwise_equal(s, simulate(g, n, p, kLat));
}

TEST(Oracle, MatchesSimulateOnRandomProblems) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto c = testutil::random_case(seed, 4 + static_cast<int>(seed) % 28,
                                         1 + static_cast<int>(seed) % 7);
    const Schedule prod = simulate(c.graph, c.network, c.placement, kLat);
    const Schedule ref = oracle_simulate(c.graph, c.network, c.placement, kLat);
    expect_schedules_bitwise_equal(ref, prod);
  }
}

TEST(Oracle, MatchesSimulateUnderNoiseWithSameDrawSequence) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto c = testutil::random_case(seed * 31, 20, 5);
    std::mt19937_64 rng_prod(seed), rng_ref(seed);
    const Schedule prod =
        simulate(c.graph, c.network, c.placement, kLat, SimOptions{0.3, &rng_prod});
    const Schedule ref =
        oracle_simulate(c.graph, c.network, c.placement, kLat, SimOptions{0.3, &rng_ref});
    expect_schedules_bitwise_equal(ref, prod);
    // Both consumed the same number of draws: engines stay in lockstep.
    EXPECT_EQ(rng_prod(), rng_ref());
  }
}

TEST(Oracle, MatchesSimulateUnderNicContention) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto c = testutil::random_case(seed * 77, 18, 4);
    SharedLinkMap nics;
    add_nic_links(nics, c.network.num_devices());
    SimOptions opt;
    opt.shared_links = &nics;
    expect_schedules_bitwise_equal(
        oracle_simulate(c.graph, c.network, c.placement, kLat, opt),
        simulate(c.graph, c.network, c.placement, kLat, opt));
  }
}

TEST(Oracle, MatchesSimulateOnMultiCoreDevices) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto c = testutil::random_case(seed * 131, 24, 3);
    std::mt19937_64 rng(seed);
    for (int d = 0; d < c.network.num_devices(); ++d) {
      c.network.device(d).cores = 1 + static_cast<int>(rng() % 4);
    }
    expect_schedules_bitwise_equal(
        oracle_simulate(c.graph, c.network, c.placement, kLat),
        simulate(c.graph, c.network, c.placement, kLat));
  }
}

TEST(Oracle, MatchesSimulateIntoWithReusedWorkspace) {
  SimWorkspace ws;
  Schedule out;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto c = testutil::random_case(seed * 7, 6 + static_cast<int>(seed) * 3, 4);
    simulate_into(c.graph, c.network, c.placement, kLat, ws, out);
    expect_schedules_bitwise_equal(
        oracle_simulate(c.graph, c.network, c.placement, kLat), out);
  }
}

TEST(Oracle, EmptyGraphYieldsEmptySchedule) {
  const TaskGraph g;
  const DeviceNetwork n = testutil::two_devices();
  const Schedule s = oracle_simulate(g, n, Placement(0), kLat);
  EXPECT_TRUE(s.tasks.empty());
  EXPECT_EQ(s.makespan, 0.0);
}

TEST(Oracle, ThrowsLikeSimulate) {
  TaskGraph g;
  g.add_task(Task{.compute = 1.0, .requires_hw = 0b1});
  DeviceNetwork n;
  n.add_device(Device{.supports_hw = 0});
  Placement p(1);
  p.set(0, 0);
  EXPECT_THROW(oracle_simulate(g, n, p, kLat), std::invalid_argument);

  TaskGraph cyclic;
  cyclic.add_task(Task{.compute = 1.0});
  cyclic.add_task(Task{.compute = 1.0});
  cyclic.add_edge(0, 1, 1.0);
  cyclic.add_edge(1, 0, 1.0);
  Placement pc(2);
  pc.set(0, 0);
  pc.set(1, 0);
  DeviceNetwork n1;
  n1.add_device(Device{.speed = 1.0});
  EXPECT_THROW(oracle_simulate(cyclic, n1, pc, kLat), std::logic_error);

  TaskGraph ok;
  ok.add_task(Task{.compute = 1.0});
  Placement p1(1);
  p1.set(0, 0);
  EXPECT_THROW(oracle_simulate(ok, n1, p1, kLat, SimOptions{0.5, nullptr}),
               std::invalid_argument);
}

TEST(Oracle, DoesNotCountAsProductionSimulation) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  const std::uint64_t before = simulation_count();
  (void)oracle_simulate(g, n, p, kLat);
  EXPECT_EQ(simulation_count(), before);
}

// The fault oracle must agree bitwise with simulate_with_faults on every
// fault kind (crash, leave, transient/permanent stragglers, overlapping link
// degrades with extra delay), composed with noise, NIC links,
// multi-core devices, and shared-link contention.
TEST(OracleFaults, MatchesSimulateWithFaultsOnRandomPlans) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto c = testutil::random_case(seed * 97, 6 + static_cast<int>(seed) % 20,
                                   2 + static_cast<int>(seed) % 5);
    std::mt19937_64 rng(seed);
    if (seed % 3 == 0) {
      for (int d = 0; d < c.network.num_devices(); ++d) {
        c.network.device(d).cores = 1 + static_cast<int>(rng() % 3);
      }
    }
    SharedLinkMap map;
    SimOptions opt;
    if (seed % 2 == 0) {
      std::vector<PhysicalLink> phys;
      for (int k = 1; k < c.network.num_devices(); ++k) {
        phys.push_back({static_cast<int>(rng() % k), k, 4.0, 0.5, true});
      }
      apply_topology(c.network, phys);
      map = build_shared_link_map(c.network.num_devices(), phys);
      opt.shared_links = &map;
    }
    if (seed % 4 == 1) {
      add_nic_links(map, c.network.num_devices());
      opt.shared_links = &map;
    }
    FaultPlanParams fp;
    fp.horizon = simulate(c.graph, c.network, c.placement, kLat).makespan;
    fp.crashes = static_cast<int>(seed % 2);
    fp.leaves = static_cast<int>(seed / 2 % 2);
    fp.slowdowns = 2;
    fp.link_degrades = 3;
    FaultPlan plan = generate_fault_plan(c.network, fp, rng);
    for (FaultEvent& e : plan.events) {
      if (e.kind == FaultKind::kLinkDegrade && rng() % 2 == 0) e.delay_add = 0.75;
    }
    std::mt19937_64 rng_prod(seed), rng_ref(seed);
    opt.noise = seed % 5 == 0 ? 0.0 : 0.25;
    opt.rng = &rng_prod;
    const FaultSimResult prod =
        simulate_with_faults(c.graph, c.network, c.placement, kLat, plan, opt);
    opt.rng = &rng_ref;
    const FaultSimResult ref =
        oracle_simulate_with_faults(c.graph, c.network, c.placement, kLat, plan, opt);
    expect_schedules_bitwise_equal(ref.schedule, prod.schedule);
    EXPECT_EQ(ref.stranded, prod.stranded) << "seed " << seed;
    EXPECT_EQ(ref.failed_devices, prod.failed_devices) << "seed " << seed;
    EXPECT_EQ(rng_prod(), rng_ref()) << "seed " << seed;
  }
}

TEST(OracleFaults, MatchesHandDerivedCrashAndEmptyPlan) {
  const TaskGraph g = testutil::chain3();
  const DeviceNetwork n = testutil::two_devices();
  const Placement p = testutil::alternating3();
  // Task 1 runs [7, 9] on device 1; a crash at t = 8 kills it and starves
  // task 2 (same derivation as Faults.CrashStrandsRunningAndDownstreamTasks).
  const FaultSimResult r =
      oracle_simulate_with_faults(g, n, p, kLat, parse_fault_plan("crash:1@8"));
  EXPECT_EQ(r.stranded, (std::vector<int>{1, 2}));
  EXPECT_EQ(r.failed_devices, std::vector<int>{1});
  EXPECT_DOUBLE_EQ(r.schedule.tasks[0].finish, 2.0);
  EXPECT_DOUBLE_EQ(r.schedule.makespan, 2.0);

  const FaultSimResult none = oracle_simulate_with_faults(g, n, p, kLat, FaultPlan{});
  EXPECT_TRUE(none.completed());
  expect_schedules_bitwise_equal(none.schedule, oracle_simulate(g, n, p, kLat));

  NetworkTrace trace;
  trace.link(0, 1).segments.push_back({1.0, 0.5, 0.0, 0.0});
  SimOptions opt;
  opt.trace = &trace;
  EXPECT_THROW(oracle_simulate_with_faults(g, n, p, kLat, FaultPlan{}, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace giph
