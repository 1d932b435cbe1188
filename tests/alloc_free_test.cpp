// The serving path and the simulator allocate nothing once warm. This binary
// replaces the global operator new with a counting one (hence its own
// executable), warms a GiPHAgent up with one act() on an instance, and then
// demands that further act() calls on it make zero allocations. Every
// autograd node is a make_shared, so zero allocations also means no tape was
// built. The same holds for a warm simulate_into(), a search env's try_move()
// (replayed or fallen back) and simulate_streaming_into(). The training tape,
// which does allocate, has exact ceilings per decide and per episode backward.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "agent_variants.hpp"
#include "core/giph_agent.hpp"
#include "gen/device_network_gen.hpp"
#include "gen/task_graph_gen.hpp"
#include "sim/stream.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace giph {
namespace {

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(CountingNew, SeesAllocations) {
  const long before = allocations();
  void* p = ::operator new(16);
  ::operator delete(p);
  EXPECT_EQ(allocations() - before, 1);
}

class ActAllocations : public ::testing::TestWithParam<int> {};

TEST_P(ActAllocations, WarmActAllocatesNothing) {
  const AgentVariant v = agent_variants()[GetParam()];
  std::mt19937_64 gen(20260808);
  TaskGraphParams gp;
  gp.num_tasks = 16;
  NetworkParams np;
  np.num_devices = 12;  // top-k = 8 prunes
  np.num_hw_kinds = gp.num_hw_kinds;
  const TaskGraph g = generate_task_graph(gp, gen);
  DeviceNetwork n = generate_device_network(np, gen);
  ensure_feasible(g, n, gen);
  const DefaultLatencyModel lat;
  PlacementSearchEnv env(g, n, lat, makespan_objective(lat), random_placement(g, n, gen));
  env.apply(SearchAction{0, env.feasible()[0].back()});  // a last-moved task to mask

  GiPHAgent agent(v.options);
  for (const bool greedy : {true, false}) {
    std::mt19937_64 rng(greedy ? 1 : 2);
    agent.act(env, rng, greedy);  // warm-up
    const long before = allocations();
    for (int i = 0; i < 8; ++i) agent.act(env, rng, greedy);
    EXPECT_EQ(allocations() - before, 0) << (greedy ? "greedy" : "sampled");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ActAllocations,
    ::testing::Range(0, static_cast<int>(agent_variants().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return agent_variants()[info.param].name;
    });

// The tape path, for contrast: decide() allocates (its tape nodes at least).
TEST(DecideAllocations, TapePathAllocates) {
  std::mt19937_64 gen(3);
  TaskGraphParams gp;
  gp.num_tasks = 8;
  NetworkParams np;
  np.num_devices = 4;
  np.num_hw_kinds = gp.num_hw_kinds;
  const TaskGraph g = generate_task_graph(gp, gen);
  DeviceNetwork n = generate_device_network(np, gen);
  ensure_feasible(g, n, gen);
  const DefaultLatencyModel lat;
  PlacementSearchEnv env(g, n, lat, makespan_objective(lat), random_placement(g, n, gen));
  GiPHAgent agent(GiPHOptions{});
  std::mt19937_64 rng(1);
  agent.decide(env, rng, true);
  const long before = allocations();
  agent.decide(env, rng, true);
  EXPECT_GT(allocations() - before, 0);
}

// Exact work counters for the training tape on a 20-task x 8-device
// instance: a warm GiPH decide, and the backward over a 40-step episode's
// loss. Each ceiling is the count the tape makes with one tape node per
// message-passing direction; a change that allocates more per decide or per
// episode fails here, without timing noise.
constexpr long kWarmDecideAllocations = 89;
constexpr long kEpisodeBackwardAllocations = 1699;

struct TapeInstance {
  TaskGraph g;
  DeviceNetwork n;
  DefaultLatencyModel lat;
  std::optional<PlacementSearchEnv> env;
  GiPHAgent agent{GiPHOptions{}};
  std::mt19937_64 rng{1};
  TapeInstance() {
    std::mt19937_64 gen(20260810);
    TaskGraphParams gp;
    gp.num_tasks = 20;
    NetworkParams np;
    np.num_devices = 8;
    np.num_hw_kinds = gp.num_hw_kinds;
    g = generate_task_graph(gp, gen);
    n = generate_device_network(np, gen);
    ensure_feasible(g, n, gen);
    env.emplace(g, n, lat, makespan_objective(lat), random_placement(g, n, gen));
    agent.begin_episode();
    agent.decide(*env, rng, false);  // warm-up
  }
};

TEST(DecideAllocations, WarmDecideStaysUnderCeiling) {
  TapeInstance t;
  const long before = allocations();
  t.agent.decide(*t.env, t.rng, false);
  EXPECT_LE(allocations() - before, kWarmDecideAllocations);
}

TEST(DecideAllocations, EpisodeBackwardStaysUnderCeiling) {
  TapeInstance t;
  std::vector<nn::Var> log_probs;
  std::vector<double> weights;
  for (int step = 0; step < 2 * t.g.num_tasks(); ++step) {
    const ActionDecision d = t.agent.decide(*t.env, t.rng, false);
    weights.push_back(t.env->apply(d.action) - 0.01 * step);
    log_probs.push_back(d.log_prob);
  }
  const nn::Var loss = nn::weighted_sum(log_probs, weights);
  log_probs.clear();
  const long before = allocations();
  nn::backward(loss);
  EXPECT_LE(allocations() - before, kEpisodeBackwardAllocations);
}

/// A seeded 40-task instance for the simulator allocation tests.
struct SimInstance {
  TaskGraph g;
  DeviceNetwork n;
  Placement p;
};

SimInstance sim_instance() {
  std::mt19937_64 gen(20260809);
  TaskGraphParams gp;
  gp.num_tasks = 40;
  NetworkParams np;
  np.num_devices = 6;
  np.num_hw_kinds = gp.num_hw_kinds;
  SimInstance s;
  s.g = generate_task_graph(gp, gen);
  s.n = generate_device_network(np, gen);
  ensure_feasible(s.g, s.n, gen);
  s.p = random_placement(s.g, s.n, gen);
  return s;
}

TEST(SimAllocations, WarmSimulateIntoAllocatesNothing) {
  const SimInstance s = sim_instance();
  const DefaultLatencyModel lat;
  SimWorkspace ws;
  Schedule out;
  simulate_into(s.g, s.n, s.p, lat, ws, out);  // warm-up
  const long before = allocations();
  for (int i = 0; i < 4; ++i) simulate_into(s.g, s.n, s.p, lat, ws, out);
  EXPECT_EQ(allocations() - before, 0);
}

TEST(SimAllocations, WarmTryMoveAllocatesNothing) {
  const SimInstance s = sim_instance();
  const DefaultLatencyModel lat;
  PlacementSearchEnv env(s.g, s.n, lat, makespan_objective(lat), s.p);
  // Find one try that replays incrementally and one that falls back to a
  // full simulation; the search also warms the env's buffers.
  std::optional<SearchAction> replayed, fell_back;
  for (int v = 0; v < s.g.num_tasks(); ++v) {
    for (const int d : env.feasible()[v]) {
      const std::uint64_t replays = env.delta_simulations_run();
      env.try_move(SearchAction{v, d});
      auto& found = env.delta_simulations_run() > replays ? replayed : fell_back;
      if (!found) found = SearchAction{v, d};
    }
  }
  ASSERT_TRUE(replayed.has_value());
  ASSERT_TRUE(fell_back.has_value());
  for (const auto& [a, replays_per_try] :
       {std::pair{*replayed, 1u}, std::pair{*fell_back, 0u}}) {
    env.try_move(a);  // warm-up
    const std::uint64_t replays = env.delta_simulations_run();
    const long before = allocations();
    env.try_move(a);
    EXPECT_EQ(allocations() - before, 0) << "task " << a.task << " -> d" << a.device;
    EXPECT_EQ(env.delta_simulations_run() - replays, replays_per_try);
  }
}

TEST(SimAllocations, WarmStreamingAllocatesNothing) {
  const SimInstance s = sim_instance();
  const DefaultLatencyModel lat;
  StreamOptions opt;
  opt.frames = 8;
  opt.interval = makespan(s.g, s.n, s.p, lat) / 4.0;
  StreamWorkspace ws;
  StreamResult out;
  simulate_streaming_into(s.g, s.n, s.p, lat, ws, out, opt);  // warm-up
  const long before = allocations();
  for (int i = 0; i < 4; ++i) simulate_streaming_into(s.g, s.n, s.p, lat, ws, out, opt);
  EXPECT_EQ(allocations() - before, 0);
}

}  // namespace
}  // namespace giph
