// Tests of the single-simulation evaluation core: workspace-based simulation,
// schedule-aware objectives, the per-device EST index, the
// one-simulation-per-step invariant, and determinism of the parallel
// evaluation layer.

#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "baselines/random_policies.hpp"
#include "core/reinforce.hpp"
#include "eval/evaluation.hpp"
#include "gen/dataset.hpp"
#include "heft/heft.hpp"
#include "sim/schedule_index.hpp"
#include "testutil.hpp"

namespace giph {
namespace {

using testutil::expect_schedules_bitwise_equal;

const DefaultLatencyModel kLat;

Dataset varied_dataset(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TaskGraphParams small;
  small.num_tasks = 6;
  TaskGraphParams big;
  big.num_tasks = 18;
  NetworkParams tight;
  tight.num_devices = 3;
  NetworkParams wide;
  wide.num_devices = 8;
  return generate_dataset({small, big}, {tight, wide}, 6, 2, rng);
}

TEST(SimWorkspace, SimulateIntoMatchesSimulateBitwiseAcrossReuse) {
  const Dataset ds = varied_dataset(21);
  std::mt19937_64 rng(5);
  SimWorkspace ws;  // one workspace reused across all sizes, in mixed order
  Schedule out;
  for (int round = 0; round < 2; ++round) {
    for (const TaskGraph& g : ds.graphs) {
      for (const DeviceNetwork& n : ds.networks) {
        const Placement p = random_placement(g, n, rng);
        const Schedule fresh = simulate(g, n, p, kLat);
        simulate_into(g, n, p, kLat, ws, out);
        expect_schedules_bitwise_equal(fresh, out);
      }
    }
  }
}

TEST(SimWorkspace, NoisyAndContendedRunsMatchToo) {
  const Dataset ds = varied_dataset(22);
  const TaskGraph& g = ds.graphs.front();
  const DeviceNetwork& n = ds.networks.front();
  std::mt19937_64 prng(9);
  const Placement p = random_placement(g, n, prng);
  SimWorkspace ws;
  Schedule out;

  std::mt19937_64 a(77), b(77);
  SimOptions noisy_a{0.3, &a};
  SimOptions noisy_b{0.3, &b};
  const Schedule fresh = simulate(g, n, p, kLat, noisy_a);
  simulate_into(g, n, p, kLat, ws, out, noisy_b);
  expect_schedules_bitwise_equal(fresh, out);

  SharedLinkMap nics;
  add_nic_links(nics, n.num_devices());
  SimOptions contended;
  contended.shared_links = &nics;
  const Schedule fresh2 = simulate(g, n, p, kLat, contended);
  simulate_into(g, n, p, kLat, ws, out, contended);
  expect_schedules_bitwise_equal(fresh2, out);
}

TEST(ScheduleIndexQuery, MatchesUnindexedEstExactly) {
  const Dataset ds = varied_dataset(23);
  std::mt19937_64 rng(31);
  for (const TaskGraph& g : ds.graphs) {
    for (const DeviceNetwork& n : ds.networks) {
      const Placement p = random_placement(g, n, rng);
      const Schedule sched = simulate(g, n, p, kLat);
      ScheduleIndex index;
      index.build(sched, p, n.num_devices());
      for (int v = 0; v < g.num_tasks(); ++v) {
        for (int d = 0; d < n.num_devices(); ++d) {
          EXPECT_EQ(earliest_start_on_queued(sched, g, n, p, kLat, index, v, d),
                    earliest_start_on_queued(sched, g, n, p, kLat, v, d))
              << "task " << v << " device " << d;
        }
        EXPECT_EQ(eft_select_device(g, n, p, kLat, sched, index, v),
                  eft_select_device(g, n, p, kLat, sched, v));
      }
    }
  }
}

TEST(ScheduleAwareObjective, SearchMatchesLegacyObjectiveExactly) {
  const Dataset ds = varied_dataset(24);
  const TaskGraph& g = ds.graphs[1];
  const DeviceNetwork& n = ds.networks[0];
  std::mt19937_64 prng(41);
  const Placement init = random_placement(g, n, prng);
  const double denom = slr_denominator(g, n, kLat);

  // An objective that ignores the schedule and re-simulates vs the
  // schedule-aware factory: identical values, hence identical search
  // trajectories.
  const ScheduleObjective legacy = [](const TaskGraph& gg, const DeviceNetwork& nn,
                                      const Placement& pp, const Schedule&) {
    return makespan(gg, nn, pp, kLat);
  };
  PlacementSearchEnv legacy_env(g, n, kLat, legacy, init, denom);
  PlacementSearchEnv env(g, n, kLat, makespan_objective(kLat), init, denom);
  EXPECT_EQ(env.objective(), legacy_env.objective());

  RandomWalkPolicy policy;
  std::mt19937_64 ra(55), rb(55);
  const SearchTrace ta = run_search(policy, legacy_env, 2 * g.num_tasks(), ra);
  const SearchTrace tb = run_search(policy, env, 2 * g.num_tasks(), rb);
  EXPECT_EQ(ta.initial, tb.initial);
  EXPECT_EQ(ta.best_so_far, tb.best_so_far);
}

TEST(SearchEnvSimCount, ExactlyOneSimulationPerStep) {
  const Dataset ds = varied_dataset(25);
  const TaskGraph& g = ds.graphs[0];
  const DeviceNetwork& n = ds.networks[0];
  std::mt19937_64 rng(61);
  const Placement init = random_placement(g, n, rng);

  const std::uint64_t before = simulation_count();
  const std::uint64_t full_before = full_simulation_count();
  const std::uint64_t delta_before = delta_simulation_count();
  PlacementSearchEnv env(g, n, kLat, makespan_objective(kLat), init,
                         slr_denominator(g, n, kLat));
  EXPECT_EQ(env.simulations_run(), 1u);  // construction simulates once (fully)
  EXPECT_EQ(env.delta_simulations_run(), 0u);
  EXPECT_EQ(env.delta_fallbacks(), 0u);

  RandomWalkPolicy policy;
  const int steps = 2 * g.num_tasks();
  run_search(policy, env, steps, rng);
  EXPECT_EQ(env.simulations_run(), 1u + static_cast<std::uint64_t>(steps));
  // Every apply() is exactly one simulation: an incremental delta replay or a
  // full-recompute fallback, never both.
  EXPECT_EQ(env.delta_simulations_run() + env.delta_fallbacks(),
            static_cast<std::uint64_t>(steps));
  // The process-wide counters agree with the env's split: nothing else
  // simulated behind our back (the makespan objective reads the env's
  // schedule instead of re-running), and fallbacks are the only steps that
  // re-ran the full simulator.
  EXPECT_EQ(simulation_count() - before, 1u + static_cast<std::uint64_t>(steps));
  EXPECT_EQ(full_simulation_count() - full_before, 1u + env.delta_fallbacks());
  EXPECT_EQ(delta_simulation_count() - delta_before, env.delta_simulations_run());

  // A try is one simulation too, counted whether or not it is committed, and
  // commit() simulates nothing.
  const int tries = g.num_tasks();
  for (int i = 0; i < tries; ++i) {
    const int v = static_cast<int>(rng() % g.num_tasks());
    const std::vector<int>& devs = env.feasible()[v];
    env.try_move(SearchAction{v, devs[rng() % devs.size()]});
    if (i % 3 == 0) env.commit();
  }
  const auto total = 1u + static_cast<std::uint64_t>(steps + tries);
  EXPECT_EQ(env.simulations_run(), total);
  EXPECT_EQ(env.delta_simulations_run() + env.delta_fallbacks(), total - 1u);
  EXPECT_EQ(simulation_count() - before, total);
  EXPECT_EQ(full_simulation_count() - full_before, 1u + env.delta_fallbacks());
  EXPECT_EQ(delta_simulation_count() - delta_before, env.delta_simulations_run());
}

TEST(EvalParallel, PolicyFinalsBitwiseIdenticalForAnyThreadCount) {
  const Dataset ds = varied_dataset(26);
  std::vector<eval::Case> cases;
  for (const TaskGraph& g : ds.graphs) {
    cases.push_back(eval::Case{&g, &ds.networks[0]});
  }
  const eval::PolicyFactory factory = [] {
    return std::make_unique<RandomTaskEftPolicy>();
  };
  RandomTaskEftPolicy serial_policy;
  const auto reference = eval::policy_finals(serial_policy, cases, kLat, 0.2, 555);
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(eval::policy_finals(factory, cases, kLat, 0.2, 555, threads), reference)
        << "threads = " << threads;
  }
}

TEST(EvalParallel, PolicyCurveBitwiseIdenticalForAnyThreadCount) {
  const Dataset ds = varied_dataset(27);
  std::vector<eval::Case> cases;
  for (const TaskGraph& g : ds.graphs) {
    cases.push_back(eval::Case{&g, &ds.networks[1]});
  }
  const eval::PolicyFactory factory = [] {
    return std::make_unique<RandomTaskEftPolicy>();
  };
  RandomTaskEftPolicy serial_policy;
  const eval::Curve reference = eval::policy_curve(serial_policy, cases, kLat, 0.0, 99);
  for (const int threads : {1, 2, 8}) {
    const eval::Curve c = eval::policy_curve(factory, cases, kLat, 0.0, 99, 9, threads);
    EXPECT_EQ(c.name, reference.name);
    EXPECT_EQ(c.values, reference.values) << "threads = " << threads;
  }
}

TEST(EvalParallel, HeftFinalsThreadIndependent) {
  const Dataset ds = varied_dataset(28);
  std::vector<eval::Case> cases;
  for (const TaskGraph& g : ds.graphs) {
    cases.push_back(eval::Case{&g, &ds.networks[0]});
  }
  EXPECT_EQ(eval::heft_finals(cases, kLat, 1), eval::heft_finals(cases, kLat, 4));
}

TEST(EvalGuard, ZeroStepSearchReportsInitialObjective) {
  // An empty graph gives run_search a 0-step budget; the evaluation layer
  // must still report a well-defined (initial) objective per case instead of
  // indexing an empty best-so-far trace.
  const TaskGraph empty;
  DeviceNetwork n(2);
  n.device(0).speed = 1.0;
  n.device(1).speed = 1.0;
  const std::vector<eval::Case> cases{{&empty, &n}};
  RandomWalkPolicy policy;
  const auto finals = eval::policy_finals(policy, cases, kLat, 0.0, 7);
  ASSERT_EQ(finals.size(), 1u);
  EXPECT_EQ(finals[0], 0.0);  // empty graph: makespan 0, no normalization
  const eval::Curve curve = eval::policy_curve(policy, cases, kLat, 0.0, 7, 4);
  ASSERT_EQ(curve.values.size(), 4u);
  for (const double v : curve.values) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace giph
