// Dynamic network conditions: trace breakpoints, shared-link contention,
// their inactive-config bitwise reductions, validation errors, and the
// continuous-churn harness.

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "baselines/random_policies.hpp"
#include "casestudy/churn.hpp"
#include "eval/robustness_eval.hpp"
#include "graph/topology.hpp"
#include "heft/heft.hpp"
#include "sim/latency_model.hpp"
#include "sim/network_trace.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"
#include "verify/invariants.hpp"
#include "verify/oracle.hpp"

namespace giph {
namespace {

using testutil::alternating3;
using testutil::chain3;
using testutil::expect_schedules_bitwise_equal;
using testutil::random_case;
using testutil::two_devices;

const DefaultLatencyModel kLat;

// ---------------------------------------------------------------------------
// NetworkTrace semantics

TEST(NetworkTrace, BreakpointRescalesRemainingWireTime) {
  // chain3 / two_devices / alternating3: edge 0 flies 0 -> 1 during [2, 7]
  // with startup 1 (wire phase [3, 7]). Halving the bandwidth at t = 5
  // doubles the remaining 2 units of wire time: arrival 9, t1 runs [9, 11].
  NetworkTrace trace;
  trace.link(0, 1).segments.push_back({5.0, 0.5, 0.0, 0.0});
  SimOptions opt;
  opt.trace = &trace;
  const Schedule s = simulate(chain3(), two_devices(), alternating3(), kLat, opt);
  EXPECT_DOUBLE_EQ(s.edge_finish[0], 9.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 9.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].finish, 11.0);
}

TEST(NetworkTrace, BreakpointDuringStartupAnchorsAtWireBegin) {
  // Edge 1 flies 1 -> 0 during [9, 18]: startup [9, 10], wire [10, 18].
  // Halving the bandwidth at t = 9.5 (inside the startup window) must anchor
  // at the wire begin: all 8 wire units double, arrival 26.
  NetworkTrace trace;
  trace.link(1, 0).segments.push_back({9.5, 0.5, 0.0, 0.0});
  SimOptions opt;
  opt.trace = &trace;
  const Schedule s = simulate(chain3(), two_devices(), alternating3(), kLat, opt);
  EXPECT_DOUBLE_EQ(s.edge_finish[1], 26.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].finish, 32.0);
}

TEST(NetworkTrace, SegmentActiveAtDispatchSetsDelayAndDrop) {
  // A segment active from t = 0 on 0 -> 1: delay_add 2 raises the startup to
  // 1 + 2 = 3, drop_prob 0.5 doubles the wire time (expected retransmits):
  // edge 0 becomes 3 + 4*2 = 11 long, in flight [2, 13], t1 [13, 15].
  NetworkTrace trace;
  trace.link(0, 1).segments.push_back({0.0, 1.0, 2.0, 0.5});
  SimOptions opt;
  opt.trace = &trace;
  const Schedule s = simulate(chain3(), two_devices(), alternating3(), kLat, opt);
  EXPECT_DOUBLE_EQ(s.edge_start[0], 2.0);
  EXPECT_DOUBLE_EQ(s.edge_finish[0], 13.0);
  EXPECT_DOUBLE_EQ(s.tasks[1].start, 13.0);
}

TEST(NetworkTrace, OtherDirectionAndOtherLinksUnaffected) {
  // A schedule on 0 -> 1 only: edge 1 (1 -> 0) keeps its nominal [9, 18].
  NetworkTrace trace;
  trace.link(0, 1).segments.push_back({0.0, 0.25, 0.0, 0.0});
  SimOptions opt;
  opt.trace = &trace;
  const Schedule s = simulate(chain3(), two_devices(), alternating3(), kLat, opt);
  EXPECT_DOUBLE_EQ(s.edge_finish[0], 2.0 + 1.0 + 4.0 * 4.0);  // 0 -> 1 stretched
  EXPECT_DOUBLE_EQ(s.edge_finish[1] - s.edge_start[1], 9.0);  // 1 -> 0 nominal
}

TEST(NetworkTrace, NullAndEmptyTraceReduceBitwise) {
  const auto c = random_case(42);
  const Schedule plain = simulate(c.graph, c.network, c.placement, kLat);

  NetworkTrace empty;
  SimOptions opt;
  opt.trace = &empty;
  expect_schedules_bitwise_equal(
      plain, simulate(c.graph, c.network, c.placement, kLat, opt));

  // A trace whose schedules all have zero segments is empty too.
  NetworkTrace hollow;
  hollow.link(0, 1);
  opt.trace = &hollow;
  expect_schedules_bitwise_equal(
      plain, simulate(c.graph, c.network, c.placement, kLat, opt));
}

TEST(NetworkTrace, ValidationNamesLinkAndField) {
  DeviceNetwork n = two_devices();
  NetworkTrace trace;
  trace.link(0, 1).segments.push_back({1.0, -2.0, 0.0, 0.0});
  try {
    validate_network_trace(trace, n);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bandwidth_factor"), std::string::npos) << what;
    EXPECT_NE(what.find("-2"), std::string::npos) << what;
  }

  NetworkTrace unsorted;
  unsorted.link(0, 1).segments.push_back({5.0, 1.0, 0.0, 0.0});
  unsorted.link(0, 1).segments.push_back({3.0, 1.0, 0.0, 0.0});
  EXPECT_THROW(validate_network_trace(unsorted, n),
               std::invalid_argument);

  NetworkTrace self;
  self.link(1, 1).segments.push_back({1.0, 1.0, 0.0, 0.0});
  EXPECT_THROW(validate_network_trace(self, n), std::invalid_argument);

  NetworkTrace full_drop;
  full_drop.link(0, 1).segments.push_back({1.0, 1.0, 0.0, 1.0});
  EXPECT_THROW(validate_network_trace(full_drop, n),
               std::invalid_argument);

  // simulate() validates against its own device count.
  NetworkTrace out_of_range;
  out_of_range.link(0, 7).segments.push_back({1.0, 1.0, 0.0, 0.0});
  SimOptions opt;
  opt.trace = &out_of_range;
  EXPECT_THROW(simulate(chain3(), n, alternating3(), kLat, opt),
               std::invalid_argument);
}

TEST(NetworkTrace, OracleMatchesSimulatorUnderTrace) {
  NetworkTrace trace;
  trace.link(0, 1).segments.push_back({3.0, 0.5, 0.5, 0.2});
  trace.link(1, 0).segments.push_back({4.0, 2.0, 0.0, 0.0});
  trace.link(1, 0).segments.push_back({12.0, 0.25, 1.0, 0.4});
  SimOptions opt;
  opt.trace = &trace;
  const Schedule sim = simulate(chain3(), two_devices(), alternating3(), kLat, opt);
  const Schedule ref =
      oracle_simulate(chain3(), two_devices(), alternating3(), kLat, opt);
  expect_schedules_bitwise_equal(sim, ref);
  CheckOptions check;
  check.trace = &trace;
  const InvariantReport r =
      check_schedule(chain3(), two_devices(), alternating3(), kLat, sim, check);
  EXPECT_TRUE(r.ok()) << r.summary();
}

// ---------------------------------------------------------------------------
// Shared-link contention

TEST(SharedLinks, RoutesMatchTopologyProjection) {
  // Line d0 - d1 - d2: the 0 <-> 2 route crosses both physical links, in
  // path order, and one-hop routes cross exactly their own link.
  const std::vector<PhysicalLink> links = {{0, 1, 2.0, 1.0, true},
                                           {1, 2, 2.0, 1.0, true}};
  const SharedLinkMap map = build_shared_link_map(3, links);
  EXPECT_EQ(map.num_links, 2);
  EXPECT_EQ(map.links_on(0, 1), (std::vector<int>{0}));
  EXPECT_EQ(map.links_on(0, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(map.links_on(2, 0), (std::vector<int>{1, 0}));
  EXPECT_TRUE(map.links_on(1, 1).empty());
}

TEST(SharedLinks, ContendingTransfersQueue) {
  // Fork t0 -> {t1, t2} on the line topology (golden case 13): the 0 -> 2
  // transfer queues behind the 0 -> 1 transfer on physical link 0.
  TaskGraph g;
  g.add_task(Task{.compute = 2.0});
  g.add_task(Task{.compute = 4.0});
  g.add_task(Task{.compute = 4.0});
  g.add_edge(0, 1, 8.0);
  g.add_edge(0, 2, 8.0);
  DeviceNetwork n(3);
  const std::vector<PhysicalLink> links = {{0, 1, 2.0, 1.0, true},
                                           {1, 2, 2.0, 1.0, true}};
  apply_topology(n, links);
  const SharedLinkMap map = build_shared_link_map(3, links);
  Placement p(3);
  p.set(0, 0);
  p.set(1, 1);
  p.set(2, 2);

  SimOptions opt;
  opt.shared_links = &map;
  const Schedule s = simulate(g, n, p, kLat, opt);
  EXPECT_DOUBLE_EQ(s.edge_start[1], 7.0);  // waits for link 0, free at 7
  EXPECT_DOUBLE_EQ(s.edge_finish[1], 13.0);
  EXPECT_DOUBLE_EQ(s.tasks[2].finish, 17.0);
  // Without contention both transfers start at t = 2.
  const Schedule free = simulate(g, n, p, kLat);
  EXPECT_DOUBLE_EQ(free.edge_start[1], 2.0);

  expect_schedules_bitwise_equal(s, oracle_simulate(g, n, p, kLat, opt));
  CheckOptions check;
  check.shared_links = &map;
  const InvariantReport r = check_schedule(g, n, p, kLat, s, check);
  EXPECT_TRUE(r.ok()) << r.summary();
}

TEST(SharedLinks, EmptyMapReducesBitwiseAndSizeIsChecked) {
  const auto c = random_case(44);
  const SharedLinkMap none = build_shared_link_map(c.network.num_devices(), {});
  SimOptions opt;
  opt.shared_links = &none;
  expect_schedules_bitwise_equal(
      simulate(c.graph, c.network, c.placement, kLat),
      simulate(c.graph, c.network, c.placement, kLat, opt));

  const SharedLinkMap wrong = build_shared_link_map(2, {});
  opt.shared_links = &wrong;
  EXPECT_THROW(simulate(c.graph, c.network, c.placement, kLat, opt),
               std::invalid_argument);
}

TEST(SharedLinks, AddNicLinksAppendsOneLinkPerSender) {
  // An empty map is sized first; every remote route then gains its sender's
  // NIC, after the physical links it already crosses.
  SharedLinkMap nics;
  add_nic_links(nics, 3);
  EXPECT_EQ(nics.num_devices, 3);
  EXPECT_EQ(nics.num_links, 3);
  EXPECT_EQ(nics.links_on(0, 2), (std::vector<int>{0}));
  EXPECT_EQ(nics.links_on(2, 1), (std::vector<int>{2}));
  EXPECT_TRUE(nics.links_on(1, 1).empty());

  SharedLinkMap line = build_shared_link_map(3, {{0, 1, 2.0, 1.0, true},
                                                 {1, 2, 2.0, 1.0, true}});
  add_nic_links(line, 3);
  EXPECT_EQ(line.num_links, 5);
  EXPECT_EQ(line.links_on(0, 2), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(line.links_on(2, 0), (std::vector<int>{1, 0, 4}));
  EXPECT_TRUE(line.links_on(2, 2).empty());
  EXPECT_THROW(add_nic_links(line, 4), std::invalid_argument);
}

TEST(SharedLinks, MalformedMapIsRejectedByEveryEntryPoint) {
  // Two tasks across two devices; each map indexes per-link state out of
  // bounds unless validated: a route naming link 7 of 1, and a routes table
  // too short for the network.
  TaskGraph g;
  g.add_task(Task{.compute = 1.0});
  g.add_task(Task{.compute = 1.0});
  g.add_edge(0, 1, 4.0);
  const DeviceNetwork n = two_devices();
  Placement p(2);
  p.set(0, 0);
  p.set(1, 1);
  SharedLinkMap bad_id;
  bad_id.num_devices = 2;
  bad_id.num_links = 1;
  bad_id.routes.assign(4, {});
  bad_id.routes[1] = {7};
  SharedLinkMap short_routes = bad_id;
  short_routes.routes.assign(3, {});

  for (const SharedLinkMap* map : {&bad_id, &short_routes}) {
    SimOptions opt;
    opt.shared_links = map;
    EXPECT_THROW(simulate(g, n, p, kLat, opt), std::invalid_argument);
    EXPECT_THROW(oracle_simulate(g, n, p, kLat, opt), std::invalid_argument);
    const InvariantReport r = check_schedule(g, n, p, kLat, simulate(g, n, p, kLat),
                                             CheckOptions{.shared_links = map});
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.summary().find("shape"), std::string::npos) << r.summary();
  }
  // The simulator's and the oracle's errors name the device pair and the id.
  SimOptions opt;
  opt.shared_links = &bad_id;
  for (const bool oracle : {false, true}) {
    try {
      oracle ? (void)oracle_simulate(g, n, p, kLat, opt)
             : (void)simulate(g, n, p, kLat, opt);
      ADD_FAILURE() << "a route naming link 7 of 1 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("route 0 -> 1 names link 7"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Fault-path guards

TEST(Faults, RejectsTraceAndComposesWithSharedLinks) {
  NetworkTrace trace;
  trace.link(0, 1).segments.push_back({1.0, 0.5, 0.0, 0.0});
  SimOptions opt;
  opt.trace = &trace;
  EXPECT_THROW(simulate_with_faults(chain3(), two_devices(), alternating3(), kLat,
                                    FaultPlan{}, opt),
               std::invalid_argument);

  // Shared-link contention runs through the same engine: an empty plan
  // reduces bitwise to simulate() with the same map, noise, and NICs.
  const auto c = random_case(45);
  std::vector<PhysicalLink> phys;
  for (int k = 1; k < c.network.num_devices(); ++k) {
    phys.push_back({0, k, 3.0, 0.5, true});  // a star: routes share the hub links
  }
  DeviceNetwork n = c.network;
  apply_topology(n, phys);
  SharedLinkMap map = build_shared_link_map(n.num_devices(), phys);
  add_nic_links(map, n.num_devices());
  std::mt19937_64 rng_a(8), rng_b(8);
  SimOptions opt_a{0.2, &rng_a, nullptr, &map};
  SimOptions opt_b{0.2, &rng_b, nullptr, &map};
  const FaultSimResult r =
      simulate_with_faults(c.graph, n, c.placement, kLat, FaultPlan{}, opt_a);
  ASSERT_TRUE(r.completed());
  expect_schedules_bitwise_equal(r.schedule,
                                 simulate(c.graph, n, c.placement, kLat, opt_b));
}

// ---------------------------------------------------------------------------
// Continuous churn

eval::ChurnScript tiny_script() {
  casestudy::ChurnScriptParams cp;
  cp.mobility.num_vehicles = 4;
  cp.epochs = 6;
  return casestudy::generate_churn_script(cp);
}

TEST(Churn, ScriptGeneratorIsDeterministicAndValid) {
  const eval::ChurnScript a = tiny_script();
  const eval::ChurnScript b = tiny_script();
  validate_churn_script(a);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t t = 0; t < a.epochs.size(); ++t) {
    EXPECT_EQ(a.epochs[t].up, b.epochs[t].up) << "epoch " << t;
    EXPECT_EQ(a.epochs[t].time, b.epochs[t].time) << "epoch " << t;
    for (int k = 0; k < a.epochs[t].network.num_devices(); ++k) {
      for (int l = 0; l < a.epochs[t].network.num_devices(); ++l) {
        EXPECT_EQ(a.epochs[t].network.bandwidth(k, l),
                  b.epochs[t].network.bandwidth(k, l));
      }
    }
  }
  // Base devices are always up; the universe never changes size.
  for (const eval::ChurnEpoch& e : a.epochs) {
    EXPECT_EQ(static_cast<int>(e.up.size()), 3 + 4);
    for (int b2 = 0; b2 < 3; ++b2) EXPECT_TRUE(e.up[b2]);
  }
}

TEST(Churn, ScriptValidationNamesTheEpoch) {
  eval::ChurnScript script;
  EXPECT_THROW(validate_churn_script(script), std::invalid_argument);

  script = tiny_script();
  script.epochs[2].time = script.epochs[1].time - 1.0;
  try {
    validate_churn_script(script);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("epoch 2"), std::string::npos) << e.what();
  }

  script = tiny_script();
  std::fill(script.epochs[3].up.begin(), script.epochs[3].up.end(), char(0));
  EXPECT_THROW(validate_churn_script(script), std::invalid_argument);

  script = tiny_script();
  script.epochs[1].up.pop_back();
  EXPECT_THROW(validate_churn_script(script), std::invalid_argument);
}

eval::ChurnReport run_churn(int threads, std::uint64_t seed = 5) {
  std::mt19937_64 rng(3);
  TaskGraphParams gp;
  gp.num_tasks = 10;
  const TaskGraph g = generate_task_graph(gp, rng);
  const eval::ChurnScript script = tiny_script();
  RandomTaskEftPolicy eft;
  RandomWalkPolicy walk;
  eval::ChurnOptions opt;
  opt.seed = seed;
  opt.threads = threads;
  return eval::evaluate_churn(g, script, kLat,
                              {{eft.name(), &eft}, {walk.name(), &walk}}, opt);
}

void expect_reports_equal(const eval::ChurnReport& a, const eval::ChurnReport& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    EXPECT_EQ(a.rows[r].placer, b.rows[r].placer);
    ASSERT_EQ(a.rows[r].cells.size(), b.rows[r].cells.size());
    for (std::size_t t = 0; t < a.rows[r].cells.size(); ++t) {
      const eval::ChurnCell& x = a.rows[r].cells[t];
      const eval::ChurnCell& y = b.rows[r].cells[t];
      EXPECT_EQ(x.makespan_before, y.makespan_before) << a.rows[r].placer << " " << t;
      EXPECT_EQ(x.makespan_after, y.makespan_after) << a.rows[r].placer << " " << t;
      EXPECT_EQ(x.stranded, y.stranded);
      EXPECT_EQ(x.moved, y.moved);
      EXPECT_EQ(x.repair_steps, y.repair_steps);
      EXPECT_EQ(x.recoverable, y.recoverable);
    }
  }
}

TEST(Churn, ReportIsSeedReproducibleAndThreadCountIndependent) {
  const eval::ChurnReport serial = run_churn(1);
  expect_reports_equal(serial, run_churn(1));
  expect_reports_equal(serial, run_churn(4));
}

TEST(Churn, ReportHasReferenceRowsAndPlausibleShape) {
  const eval::ChurnReport report = run_churn(1);
  ASSERT_EQ(report.rows.size(), 4u);  // 2 policies + static + HEFT
  EXPECT_EQ(report.rows[2].placer, "static");
  EXPECT_EQ(report.rows[3].placer, "HEFT");
  for (const eval::ChurnRow& row : report.rows) {
    ASSERT_EQ(static_cast<int>(row.cells.size()), report.num_epochs);
    for (const eval::ChurnCell& cell : row.cells) {
      if (cell.recoverable && cell.makespan_after < 1e300) {
        EXPECT_GT(cell.makespan_after, 0.0);
      }
    }
  }
  // The static row never spends repair steps after epoch 0.
  for (std::size_t t = 1; t < report.rows[2].cells.size(); ++t) {
    EXPECT_EQ(report.rows[2].cells[t].repair_steps, 0);
  }
  // HEFT reschedules all |V| tasks every recoverable epoch.
  for (const eval::ChurnCell& cell : report.rows[3].cells) {
    if (cell.recoverable) EXPECT_EQ(cell.repair_steps, 10);
  }
  EXPECT_FALSE(eval::format_churn_report(report).empty());
}

TEST(Churn, DifferentSeedsDiffer) {
  // Not a hard guarantee for every pair of seeds, but these do differ - a
  // frozen RNG wiring bug would make them identical.
  const eval::ChurnReport a = run_churn(1, 5);
  const eval::ChurnReport b = run_churn(1, 99);
  bool any_diff = false;
  for (std::size_t t = 0; t < a.rows[0].cells.size(); ++t) {
    any_diff = any_diff || a.rows[0].cells[t].makespan_after !=
                               b.rows[0].cells[t].makespan_after;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace giph
