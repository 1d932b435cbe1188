// Forward-only inference against the tape: for every agent variant, greedy
// and sampled, a run_search (which steps through SearchPolicy::act) and the
// same loop stepping through decide give byte-identical traces, placements
// and RNG states.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "agent_variants.hpp"
#include "core/giph_agent.hpp"
#include "core/reinforce.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "sim/metrics.hpp"
#include "testutil.hpp"

namespace giph {
namespace {

using testutil::bytes_equal;

struct Instance {
  TaskGraph graph;
  DeviceNetwork network;
  Placement initial;
};

Instance make_instance(std::uint64_t seed, int tasks, int devices) {
  std::mt19937_64 rng(seed);
  TaskGraphParams gp;
  gp.num_tasks = tasks;
  NetworkParams np;
  np.num_devices = devices;
  np.num_hw_kinds = gp.num_hw_kinds;
  Instance in;
  in.graph = generate_task_graph(gp, rng);
  in.network = generate_device_network(np, rng);
  ensure_feasible(in.graph, in.network, rng);
  in.initial = random_placement(in.graph, in.network, rng);
  return in;
}

/// run_search's loop (GiPHAgent sets no episode limit), stepping through the
/// tape path.
SearchTrace decide_search(GiPHAgent& agent, PlacementSearchEnv& env, int steps,
                          std::mt19937_64& rng, bool greedy) {
  SearchTrace trace;
  trace.initial = env.objective();
  trace.move_counts.assign(env.graph().num_tasks(), 0);
  agent.begin_episode();
  for (int t = 0; t < steps; ++t) {
    const ActionDecision d = agent.decide(env, rng, greedy);
    EXPECT_TRUE(d.log_prob != nullptr);
    env.apply(d.action);
    ++trace.move_counts[d.action.task];
    trace.best_so_far.push_back(env.best_objective());
  }
  trace.best_placement = env.best_placement();
  return trace;
}

class ActMatchesDecide : public ::testing::TestWithParam<int> {};

TEST_P(ActMatchesDecide, SearchIsByteIdentical) {
  const AgentVariant v = agent_variants()[GetParam()];
  const DefaultLatencyModel lat;
  // 12 devices let top-k = 8 prune; the other sizes change the gpNet shape
  // between searches of the same agents.
  const int shapes[][2] = {{16, 12}, {9, 5}, {22, 10}};
  GiPHAgent tape_agent(v.options), act_agent(v.options);
  for (const bool greedy : {true, false}) {
    for (std::size_t s = 0; s < std::size(shapes); ++s) {
      SCOPED_TRACE(std::string(greedy ? "greedy" : "sampled") + " instance " +
                   std::to_string(s));
      const Instance in = make_instance(100 + s, shapes[s][0], shapes[s][1]);
      const double denom = slr_denominator(in.graph, in.network, lat);
      PlacementSearchEnv tape_env(in.graph, in.network, lat, makespan_objective(lat),
                                  in.initial, denom);
      PlacementSearchEnv act_env(in.graph, in.network, lat, makespan_objective(lat),
                                 in.initial, denom);
      const int steps = 2 * in.graph.num_tasks();
      std::mt19937_64 tape_rng(7 + s), act_rng(7 + s);
      const SearchTrace expected =
          decide_search(tape_agent, tape_env, steps, tape_rng, greedy);
      const SearchTrace got = run_search(act_agent, act_env, steps, act_rng, greedy);

      EXPECT_TRUE(bytes_equal(got.initial, expected.initial));
      EXPECT_TRUE(bytes_equal(got.best_so_far, expected.best_so_far));
      EXPECT_EQ(got.move_counts, expected.move_counts);
      EXPECT_EQ(got.best_placement, expected.best_placement);
      EXPECT_EQ(act_env.placement(), tape_env.placement());
      EXPECT_TRUE(bytes_equal(act_env.objective(), tape_env.objective()));
      EXPECT_TRUE(act_rng == tape_rng) << "act and decide consumed different draws";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ActMatchesDecide,
    ::testing::Range(0, static_cast<int>(agent_variants().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return agent_variants()[info.param].name;
    });

// act is inference-only: it carries no differentiable outputs.
TEST(GiPHAgentAct, LeavesLogProbAndValueNull) {
  const Instance in = make_instance(5, 8, 4);
  const DefaultLatencyModel lat;
  PlacementSearchEnv env(in.graph, in.network, lat, makespan_objective(lat), in.initial);
  GiPHOptions o;
  o.use_critic = true;
  GiPHAgent agent(o);
  std::mt19937_64 rng(1);
  const ActionDecision d = agent.act(env, rng, false);
  EXPECT_EQ(d.log_prob, nullptr);
  EXPECT_EQ(d.value, nullptr);
  EXPECT_GE(d.action.task, 0);
}

}  // namespace
}  // namespace giph
