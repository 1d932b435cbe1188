// Tests of PlacementSearchEnv::try_move / commit: a try evaluates a one-task
// move without taking it, commit() takes it without simulating, and apply()
// is exactly the two in a row. Checked on random move chains against a twin
// environment that steps with apply().

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "core/search_env.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "testutil.hpp"

namespace giph {
namespace {

using testutil::bytes_equal;
using testutil::schedule_bytes_equal;

const DefaultLatencyModel kLat;

struct Instance {
  TaskGraph g;
  DeviceNetwork n;
  Placement init;
};

/// Deep instances (low alpha) replay most moves incrementally; shallow ones
/// mostly fall back, so the chains cover both simulate_delta outcomes.
Instance make_instance(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TaskGraphParams gp;
  gp.num_tasks = 12 + static_cast<int>(seed % 4) * 10;
  gp.alpha = seed % 2 == 0 ? 0.3 : 1.0;
  gp.num_hw_kinds = 2;
  gp.p_task_requires = 0.2;
  NetworkParams np;
  np.num_devices = 3 + static_cast<int>(seed % 5);
  np.num_hw_kinds = 2;
  Instance in;
  in.g = generate_task_graph(gp, rng);
  in.n = generate_device_network(np, rng);
  ensure_feasible(in.g, in.n, rng);
  in.init = random_placement(in.g, in.n, rng);
  return in;
}

/// Everything a try must leave alone and a commit must make equal to apply.
struct EnvState {
  Placement placement;
  Schedule schedule;
  double objective = 0.0;
  Placement best;
  double best_objective = 0.0;
  int steps = 0;
  int last_moved = -1;

  explicit EnvState(const PlacementSearchEnv& env)
      : placement(env.placement()),
        schedule(env.schedule()),
        objective(env.objective()),
        best(env.best_placement()),
        best_objective(env.best_objective()),
        steps(env.steps_taken()),
        last_moved(env.last_moved_task()) {}
};

void expect_same_state(const EnvState& a, const EnvState& b) {
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_TRUE(schedule_bytes_equal(a.schedule, b.schedule));
  EXPECT_TRUE(bytes_equal(a.objective, b.objective));
  EXPECT_EQ(a.best, b.best);
  EXPECT_TRUE(bytes_equal(a.best_objective, b.best_objective));
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.last_moved, b.last_moved);
}

SearchAction random_move(const PlacementSearchEnv& env, std::mt19937_64& rng) {
  const int v = static_cast<int>(rng() % env.graph().num_tasks());
  const std::vector<int>& devs = env.feasible()[v];
  return SearchAction{v, devs[rng() % devs.size()]};
}

PlacementSearchEnv make_env(const Instance& in) {
  return PlacementSearchEnv(in.g, in.n, kLat, makespan_objective(kLat), in.init,
                            slr_denominator(in.g, in.n, kLat));
}

TEST(SearchEnvTry, TryMatchesApplyTwinAndCommitEqualsApply) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance in = make_instance(seed);
    PlacementSearchEnv env = make_env(in);
    PlacementSearchEnv twin = make_env(in);
    std::mt19937_64 rng(100 + seed);
    for (int step = 0; step < 3 * in.g.num_tasks(); ++step) {
      const SearchAction a = random_move(env, rng);
      const EnvState before(env);
      const double tried = env.try_move(a);
      // The try touches nothing but the simulation counters.
      expect_same_state(EnvState(env), before);

      const double twin_reward = twin.apply(a);
      EXPECT_TRUE(bytes_equal(tried, twin.objective())) << "seed " << seed;

      const double reward = env.commit();
      EXPECT_TRUE(bytes_equal(reward, twin_reward));
      expect_same_state(EnvState(env), EnvState(twin));
      EXPECT_EQ(env.simulations_run(), twin.simulations_run());
      EXPECT_EQ(env.delta_simulations_run(), twin.delta_simulations_run());
      EXPECT_EQ(env.delta_fallbacks(), twin.delta_fallbacks());
      if (HasFailure()) return;
    }
  }
}

TEST(SearchEnvTry, ChainsReplayIncrementally) {
  // Guards the test above against vacuity: the deep instances do replay.
  const Instance in = make_instance(2);
  PlacementSearchEnv env = make_env(in);
  std::mt19937_64 rng(7);
  for (int step = 0; step < 2 * in.g.num_tasks(); ++step) {
    env.try_move(random_move(env, rng));
    env.commit();
  }
  EXPECT_GT(env.delta_simulations_run(), 0u);
}

TEST(SearchEnvTry, RejectedTriesDoNotChangeLaterResults) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Instance in = make_instance(seed);
    PlacementSearchEnv env = make_env(in);
    PlacementSearchEnv twin = make_env(in);
    std::mt19937_64 rng(200 + seed);
    std::uint64_t dropped = 0;
    for (int step = 0; step < 2 * in.g.num_tasks(); ++step) {
      const int rejected = static_cast<int>(rng() % 4);
      for (int r = 0; r < rejected; ++r) {
        env.try_move(random_move(env, rng));
        ++dropped;
      }
      const SearchAction a = random_move(env, rng);
      if (step % 2 == 0) {
        env.apply(a);  // a pending try is overwritten by the next one
      } else {
        env.try_move(a);
        env.commit();
      }
      twin.apply(a);
      expect_same_state(EnvState(env), EnvState(twin));
      EXPECT_EQ(env.simulations_run(), twin.simulations_run() + dropped);
      if (HasFailure()) return;
    }
  }
}

TEST(SearchEnvTry, CommitWithoutPendingTryThrows) {
  const Instance in = make_instance(3);
  PlacementSearchEnv env = make_env(in);
  EXPECT_THROW(env.commit(), std::logic_error);
  std::mt19937_64 rng(5);
  env.try_move(random_move(env, rng));
  EXPECT_NO_THROW(env.commit());
  EXPECT_THROW(env.commit(), std::logic_error);  // a try commits once
  env.apply(random_move(env, rng));
  EXPECT_THROW(env.commit(), std::logic_error);  // apply leaves nothing pending
}

TEST(SearchEnvTry, InvalidTryThrowsAndLeavesNothingPending) {
  const Instance in = make_instance(4);
  PlacementSearchEnv env = make_env(in);
  std::mt19937_64 rng(6);
  const EnvState before(env);
  const std::uint64_t sims = env.simulations_run();
  env.try_move(random_move(env, rng));
  EXPECT_THROW(env.try_move(SearchAction{-1, 0}), std::invalid_argument);
  EXPECT_THROW(env.try_move(SearchAction{0, in.n.num_devices()}),
               std::invalid_argument);
  EXPECT_THROW(env.commit(), std::logic_error);
  expect_same_state(EnvState(env), before);
  EXPECT_EQ(env.simulations_run(), sims + 1);
}

TEST(SearchEnvTry, StateResetsDropAPendingTry) {
  const Instance in = make_instance(5);
  PlacementSearchEnv env = make_env(in);
  std::mt19937_64 rng(9);

  env.try_move(random_move(env, rng));
  env.apply_placement(random_placement(in.g, in.n, rng));
  EXPECT_THROW(env.commit(), std::logic_error) << "apply_placement";

  env.try_move(random_move(env, rng));
  env.reset_to_initial();
  EXPECT_THROW(env.commit(), std::logic_error) << "reset_to_initial";
  EXPECT_EQ(env.placement(), in.init);

  env.try_move(random_move(env, rng));
  env.rebase(random_placement(in.g, in.n, rng));
  EXPECT_THROW(env.commit(), std::logic_error) << "rebase";

  env.try_move(random_move(env, rng));
  env.reinit(in.g, in.n, makespan_objective(kLat), in.init);
  EXPECT_THROW(env.commit(), std::logic_error) << "reinit";

  // After a reset the env steps exactly like a fresh one.
  PlacementSearchEnv fresh(in.g, in.n, kLat, makespan_objective(kLat), in.init);
  for (int step = 0; step < in.g.num_tasks(); ++step) {
    const SearchAction a = random_move(env, rng);
    EXPECT_TRUE(bytes_equal(env.try_move(a), fresh.try_move(a)));
    env.commit();
    fresh.commit();
  }
  expect_same_state(EnvState(env), EnvState(fresh));
}

}  // namespace
}  // namespace giph
