// Reproduces Table 7 and Fig. 17 with google-benchmark: per-placement-sample
// policy running time (one act + apply step: the forward-only path that
// serving and evaluation run) and per-sample training time (episode time /
// steps, through decide's tape and including the gradient update), for each
// GNN variant and as a function of the application graph size.
//
// Paper expectation: GiPH-NE-Pol (no GNN) is the fastest; full-depth
// sequential message passing (GiPH, GiPH-NE) is the slowest and grows with
// graph size; limiting the passing to k steps (GiPH-3 / GiPH-5) sits in
// between and flattens the size scaling.

#include <benchmark/benchmark.h>

#include "baselines/placeto.hpp"
#include "bench/common.hpp"
#include "core/giph_agent.hpp"

using namespace giph;
using namespace giph::bench;

namespace {

const DefaultLatencyModel kLat;

struct Instance {
  Dataset ds;
  Instance(int tasks, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    TaskGraphParams gp;
    gp.num_tasks = tasks;
    NetworkParams np;
    np.num_devices = 8;
    ds = generate_dataset({gp}, {np}, 4, 1, rng);
  }
};

std::unique_ptr<SearchPolicy> make_policy(int variant) {
  GiPHOptions o;
  o.seed = 33;
  switch (variant) {
    case 0: o.gnn = GnnKind::kGiPH; break;
    case 1: o.gnn = GnnKind::kGiPHK; o.k_steps = 3; break;
    case 2: o.gnn = GnnKind::kGiPHK; o.k_steps = 5; break;
    case 3: o.gnn = GnnKind::kGiPHNE; break;
    case 4: o.gnn = GnnKind::kNone; break;
    case 5: o.gnn = GnnKind::kGraphSAGE; break;
    case 6: {
      PlacetoOptions po;
      po.num_devices = 8;
      po.seed = 33;
      return std::make_unique<PlacetoPolicy>(po);
    }
    default: break;
  }
  return std::make_unique<GiPHAgent>(o);
}

const char* variant_name(int variant) {
  static const char* kNames[] = {"GiPH",        "GiPH-3",       "GiPH-5", "GiPH-NE",
                                 "GiPH-NE-Pol", "GraphSAGE-NE", "Placeto"};
  return kNames[variant];
}

// Table 7 / Fig. 17 right: running time per placement sample.
void BM_PolicyRunning(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const int tasks = static_cast<int>(state.range(1));
  Instance inst(tasks, 1000 + tasks);
  const auto policy = make_policy(variant);
  std::mt19937_64 rng(7);
  const TaskGraph& g = inst.ds.graphs[0];
  const DeviceNetwork& n = inst.ds.networks[0];
  PlacementSearchEnv env(g, n, kLat, makespan_objective(kLat),
                         random_placement(g, n, rng));
  policy->begin_episode();
  int since = 0;
  const int limit = policy->episode_limit(g);
  for (auto _ : state) {
    if (limit > 0 && since >= limit) {
      env.reset_to_initial();
      policy->begin_episode();
      since = 0;
    }
    ActionDecision d = policy->act(env, rng, false);
    benchmark::DoNotOptimize(env.apply(d.action));
    ++since;
  }
  state.SetLabel(variant_name(variant));
}

// Table 7: training time per placement sample (episode incl. update / steps).
void BM_TrainingSample(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const int tasks = static_cast<int>(state.range(1));
  Instance inst(tasks, 2000 + tasks);
  const auto policy = make_policy(variant);
  const InstanceSampler sampler = dataset_sampler(inst.ds);
  TrainOptions topt;
  topt.episodes = 1;
  int samples_per_episode = 0;
  for (auto _ : state) {
    topt.seed += 1;  // fresh episode stream each iteration
    train_reinforce(*policy, kLat, sampler, topt);
    samples_per_episode =
        policy->episode_limit(inst.ds.graphs[0]) > 0 ? tasks : 2 * tasks;
  }
  state.SetLabel(variant_name(variant));
  state.counters["samples/episode"] = samples_per_episode;
}

}  // namespace

BENCHMARK(BM_PolicyRunning)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6}, {16}})
    ->Unit(benchmark::kMillisecond);
// Fig. 17: size scaling for full-depth vs k-step passing.
BENCHMARK(BM_PolicyRunning)
    ->ArgsProduct({{0, 1, 2}, {8, 24, 40}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainingSample)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6}, {16}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
