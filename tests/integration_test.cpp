// Cross-module integration tests: full train -> persist -> reload -> place
// pipelines and compositions of substrates (topology + simulator + HEFT,
// contention + search, multi-core + gpNet policy).

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

// The umbrella header must pull in the whole public API (this test is also
// its compile check).
#include "giph.hpp"

namespace giph {
namespace {

const DefaultLatencyModel kLat;

TEST(Integration, TrainPersistReloadPlace) {
  std::mt19937_64 rng(77);
  TaskGraphParams gp;
  gp.num_tasks = 8;
  NetworkParams np;
  np.num_devices = 4;
  const Dataset ds = generate_dataset({gp}, {np}, 6, 2, rng);

  GiPHOptions o;
  o.seed = 5;
  GiPHAgent trained(o);
  TrainOptions t;
  t.episodes = 25;
  t.gamma = 0.1;
  t.discount_state_weight = false;
  train_reinforce(trained, kLat,
                  [&ds](std::mt19937_64& r) {
                    std::uniform_int_distribution<std::size_t> gi(0, ds.graphs.size() - 1);
                    std::uniform_int_distribution<std::size_t> ni(0, ds.networks.size() - 1);
                    return ProblemInstance{&ds.graphs[gi(r)], &ds.networks[ni(r)]};
                  },
                  t);

  const std::string model = testing::TempDir() + "giph_integration.params";
  trained.save(model);
  GiPHAgent reloaded(o);
  reloaded.load(model);
  std::remove(model.c_str());

  // Serialize a problem instance and round-trip it.
  std::stringstream gs, ns;
  write_task_graph(gs, ds.graphs[0]);
  write_device_network(ns, ds.networks[0]);
  const TaskGraph g = read_task_graph(gs);
  const DeviceNetwork n = read_device_network(ns);

  std::mt19937_64 er(9);
  const double denom = slr_denominator(g, n, kLat);
  PlacementSearchEnv env(g, n, kLat, makespan_objective(kLat),
                         random_placement(g, n, er), denom);
  const SearchTrace trace = run_search(reloaded, env, 2 * g.num_tasks(), er);
  EXPECT_LE(trace.best_so_far.back(), trace.initial + 1e-12);
  EXPECT_TRUE(is_feasible(g, n, trace.best_placement));

  // The final placement renders to a schedule trace without issues.
  const Schedule sched = simulate(g, n, trace.best_placement, kLat);
  std::stringstream csv;
  write_schedule_csv(csv, g, n, trace.best_placement, sched);
  EXPECT_FALSE(ascii_gantt(g, n, trace.best_placement, sched).empty());
}

TEST(Integration, SparseTopologyFlowsThroughHeftAndSimulator) {
  // A line topology: d0 - d1 - d2 - d3. HEFT must respect the projected
  // multi-hop costs and the simulator agrees with its decisions.
  std::mt19937_64 rng(13);
  TaskGraphParams gp;
  gp.num_tasks = 10;
  const TaskGraph g = generate_task_graph(gp, rng);
  DeviceNetwork n;
  for (int i = 0; i < 4; ++i) n.add_device(Device{.speed = 2.0 + i});
  apply_topology(n, {{0, 1, 20.0, 0.5}, {1, 2, 20.0, 0.5}, {2, 3, 20.0, 0.5}});
  EXPECT_DOUBLE_EQ(n.delay(0, 3), 1.5);

  const HeftResult heft = heft_schedule(g, n, kLat);
  const CpopResult cpop = cpop_schedule(g, n, kLat);
  const double heft_ms = makespan(g, n, heft.placement, kLat);
  EXPECT_GT(heft_ms, 0.0);
  EXPECT_TRUE(is_feasible(g, n, cpop.placement));
  // Both heuristics beat the average random placement on this topology.
  double random_ms = 0.0;
  for (int i = 0; i < 10; ++i) {
    random_ms += makespan(g, n, random_placement(g, n, rng), kLat);
  }
  EXPECT_LT(heft_ms, random_ms / 10);
}

TEST(Integration, SearchUnderContentionModel) {
  // The search environment composes with the NIC-contention simulator via a
  // custom objective.
  std::mt19937_64 rng(17);
  TaskGraphParams gp;
  gp.num_tasks = 9;
  const TaskGraph g = generate_task_graph(gp, rng);
  NetworkParams np;
  np.num_devices = 4;
  DeviceNetwork n = generate_device_network(np, rng);
  ensure_all_kinds(n, np.num_hw_kinds, rng);

  const ScheduleObjective contended = [](const TaskGraph& gg, const DeviceNetwork& nn,
                                         const Placement& p, const Schedule&) {
    SharedLinkMap nics;
    add_nic_links(nics, nn.num_devices());
    SimOptions opt;
    opt.shared_links = &nics;
    static const DefaultLatencyModel lat;
    return simulate(gg, nn, p, lat, opt).makespan;
  };
  PlacementSearchEnv env(g, n, kLat, contended, random_placement(g, n, rng));
  RandomWalkPolicy walk;
  const SearchTrace trace = run_search(walk, env, 20, rng);
  EXPECT_LE(trace.best_so_far.back(), trace.initial + 1e-12);
}

TEST(Integration, MultiCoreDevicesInteractWithGiphPolicy) {
  std::mt19937_64 rng(19);
  TaskGraphParams gp;
  gp.num_tasks = 8;
  const TaskGraph g = generate_task_graph(gp, rng);
  DeviceNetwork n;
  n.add_device(Device{.speed = 4.0, .cores = 4, .name = "server"});
  n.add_device(Device{.speed = 1.0, .name = "edge0"});
  n.add_device(Device{.speed = 1.0, .name = "edge1"});
  n.set_symmetric_link(0, 1, 5.0, 1.0);
  n.set_symmetric_link(0, 2, 5.0, 1.0);
  n.set_symmetric_link(1, 2, 5.0, 1.0);

  GiPHOptions o;
  GiPHAgent agent(o);
  PlacementSearchEnv env(g, n, kLat, makespan_objective(kLat),
                         random_placement(g, n, rng));
  for (int t = 0; t < 10; ++t) {
    const ActionDecision d = agent.decide(env, rng, false);
    EXPECT_NO_THROW(env.apply(d.action));
  }
  // Everything on the 4-core fast server beats spreading across slow edges.
  Placement all_server(g.num_tasks());
  for (int v = 0; v < g.num_tasks(); ++v) all_server.set(v, 0);
  Placement all_edge(g.num_tasks());
  for (int v = 0; v < g.num_tasks(); ++v) all_edge.set(v, 1);
  EXPECT_LT(makespan(g, n, all_server, kLat), makespan(g, n, all_edge, kLat));
}

TEST(Integration, CostObjectiveTrainingViaFactory) {
  std::mt19937_64 rng(23);
  TaskGraphParams gp;
  gp.num_tasks = 6;
  NetworkParams np;
  np.num_devices = 3;
  const Dataset ds = generate_dataset({gp}, {np}, 3, 1, rng);
  GiPHOptions o;
  GiPHAgent agent(o);
  TrainOptions t;
  t.episodes = 10;
  t.objective_factory = [](const TaskGraph&, const DeviceNetwork&, std::mt19937_64&) {
    static const DefaultLatencyModel lat;
    return total_cost_objective(lat);
  };
  t.normalizer = [](const TaskGraph&, const DeviceNetwork&) { return 100.0; };
  const TrainStats stats = train_reinforce(
      agent, kLat,
      [&ds](std::mt19937_64&) { return ProblemInstance{&ds.graphs[0], &ds.networks[0]}; },
      t);
  for (double v : stats.episode_best) {
    EXPECT_GT(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace giph
