// Microbenchmark of the single-simulation evaluation core (not a paper
// figure). Three measurements on one 50-task / 20-device instance:
//
//  1. sims/sec  - simulate() (allocating) vs simulate_into() with a reused
//                 SimWorkspace. That instance is shallow, so nearly every
//                 one-task move would fall back to a full run; the two
//                 simulate_delta replay hit rates (a raw chain of random
//                 one-task moves with a bitwise spot check, and
//                 search-environment steps of Random-task-eft) are measured
//                 on a deep, sparse instance of the same size instead, where
//                 replays fire;
//  2. steps/sec - search steps through the environment (one incremental
//                 re-simulation per step) for two policies: Random-task-eft
//                 (D est queries per step) and a sweep policy that performs
//                 the full per-(task, device) batched est sweep gpNet feature
//                 construction performs, with the NN forward excluded;
//  3. parallel  - eval::policy_finals over a batch of cases, serial vs all
//                 hardware threads, with a bitwise-equality check.
//
// Results go to BENCH_eval.json in the working directory.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "baselines/random_policies.hpp"
#include "bench/common.hpp"
#include "sim/schedule_index.hpp"
#include "util/parallel_for.hpp"

using namespace giph;
using namespace giph::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The evaluation-core work of a GiPH search step with the NN excluded: per
/// step, one batched est_sweep computes est(v, d) for every feasible (task,
/// device) pair — the start-time-potential sweep gpNet feature construction
/// performs — and the policy moves the pair minimizing est + compute time.
class GreedySweepPolicy final : public SearchPolicy {
 public:
  ActionDecision decide(PlacementSearchEnv& env, std::mt19937_64&, bool) override {
    const TaskGraph& g = env.graph();
    const DeviceNetwork& n = env.network();
    const Placement& p = env.placement();
    const int nd = n.num_devices();
    est_sweep(env.schedule(), g, n, p, env.latency(), sweep_);
    const double* compute_tbl = compute_sweep(g, n, env.latency(), sweep_).data();
    SearchAction best{0, p.device_of(0)};
    double best_eft = std::numeric_limits<double>::infinity();
    for (int v = 0; v < g.num_tasks(); ++v) {
      const std::size_t off = static_cast<std::size_t>(v) * nd;
      for (const int d : env.feasible()[v]) {
        const double eft = sweep_.est[off + d] + compute_tbl[off + d];
        if (d != p.device_of(v) && eft < best_eft) {
          best_eft = eft;
          best = SearchAction{v, d};
        }
      }
    }
    return ActionDecision{best, nullptr, std::nullopt};
  }
  std::string name() const override { return "sweep"; }

 private:
  EstSweepWorkspace sweep_;
};

/// Total search steps/sec of `policy` on fresh environments built with
/// `objective`, `rounds` searches of 2|V| steps each.
///
/// The rounds are split into a few equal repetitions and the fastest one is
/// reported: scheduler preemptions and frequency dips are strictly additive
/// noise, so the minimum-time repetition is the stable estimate of what the
/// code actually costs (same convention as timeit's min-of-repeats).
template <typename MakeEnv>
double measure_steps_per_sec(SearchPolicy& policy, const TaskGraph& g,
                             const MakeEnv& make_env, int rounds) {
  const int steps = 2 * g.num_tasks();
  // Warmup round: touch caches, size workspaces.
  {
    std::mt19937_64 rng(99);
    PlacementSearchEnv env = make_env(rng);
    run_search(policy, env, steps, rng);
  }
  const int reps = std::min(40, rounds);
  const int per_rep = rounds / reps;
  double best = 0.0;
  int r = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    for (int k = 0; k < per_rep; ++k, ++r) {
      std::mt19937_64 rng(100 + r);
      PlacementSearchEnv env = make_env(rng);
      run_search(policy, env, steps, rng);
    }
    best = std::max(best, static_cast<double>(per_rep) * steps / seconds_since(t0));
  }
  return best;
}

}  // namespace

int main() {
  const Scale scale = Scale::from_env();
  const DefaultLatencyModel lat;
  std::printf("Evaluation-core microbenchmark (scale: %s)\n",
              scale.full ? "full" : "quick");

  std::mt19937_64 gen_rng(4242);
  TaskGraphParams gp;
  gp.num_tasks = 50;
  NetworkParams np;
  np.num_devices = 20;
  const Dataset single = generate_dataset({gp}, {np}, 1, 1, gen_rng);
  const TaskGraph& g = single.graphs.front();
  const DeviceNetwork& n = single.networks.front();
  const double denom = slr_denominator(g, n, lat);

  // ---- 1. raw simulator throughput ---------------------------------------
  const int sim_reps = scale.full ? 40000 : 8000;
  std::mt19937_64 prng(7);
  const Placement p = random_placement(g, n, prng);
  double guard = 0.0;  // keep the loops observable

  // Fastest of a few equal repetitions (noise is additive; see
  // measure_steps_per_sec).
  const auto best_of = [](int total, auto&& body) {
    const int reps = 5;
    const int per = total / reps;
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      body(per);
      best = std::max(best, per / seconds_since(start));
    }
    return best;
  };

  for (int i = 0; i < 200; ++i) guard += simulate(g, n, p, lat).makespan;  // warmup
  const double alloc_sps = best_of(sim_reps, [&](int per) {
    for (int i = 0; i < per; ++i) guard += simulate(g, n, p, lat).makespan;
  });

  SimWorkspace ws;
  Schedule out;
  for (int i = 0; i < 200; ++i) simulate_into(g, n, p, lat, ws, out);
  const double ws_sps = best_of(sim_reps, [&](int per) {
    for (int i = 0; i < per; ++i) {
      simulate_into(g, n, p, lat, ws, out);
      guard += out.makespan;
    }
  });

  // The deep instance of the hit rates: same size and network parameters,
  // alpha 0.3 (mean depth sqrt(50) / 0.3 ~ 24 levels) and sparse extra edges
  // (p_connect 2/|V|, as perf_scale's dataflow graphs: with the default 0.25
  // most tasks hang off the entry task, whose finish bounds every replay's
  // unaffected prefix to one task). Its own generator seed keeps every other
  // measurement's inputs.
  std::mt19937_64 deep_rng(4343);
  TaskGraphParams deep_gp = gp;
  deep_gp.alpha = 0.3;
  deep_gp.p_connect = 2.0 / gp.num_tasks;
  const Dataset deep = generate_dataset({deep_gp}, {np}, 1, 1, deep_rng);
  const TaskGraph& dg = deep.graphs.front();
  const DeviceNetwork& dn = deep.networks.front();
  // Chained random one-task moves, each re-simulated with simulate_delta
  // against the previous schedule (the search hot path of
  // PlacementSearchEnv::try_move). A spot check every 64 moves keeps the run
  // honest about bitwise equality with the full path.
  const int hit_moves = 4000;
  std::uint64_t delta_hits = 0;
  bool delta_bitwise = true;
  {
    const std::vector<std::vector<int>> feas = feasible_sets(dg, dn);
    Placement dp = random_placement(dg, dn, deep_rng);
    Schedule prev, next, check;
    DeltaSimState dds, next_dds;
    SimWorkspace check_ws;
    simulate_into(dg, dn, dp, lat, ws, prev, dds);
    for (int i = 0; i < hit_moves; ++i) {
      const int v = static_cast<int>(deep_rng() % dg.num_tasks());
      const int d = feas[v][deep_rng() % feas[v].size()];
      dp.set(v, d);
      if (simulate_delta(dg, dn, dp, v, lat, ws, prev, dds, next, next_dds) ==
          DeltaSimResult::kReplayed) {
        ++delta_hits;
      }
      guard += next.makespan;
      if (i % 64 == 0) {
        simulate_into(dg, dn, dp, lat, check_ws, check);
        for (std::size_t t = 0; t < check.tasks.size(); ++t) {
          delta_bitwise = delta_bitwise && next.tasks[t].start == check.tasks[t].start &&
                          next.tasks[t].finish == check.tasks[t].finish;
        }
      }
      std::swap(prev, next);
      std::swap(dds, next_dds);
    }
  }
  const double delta_hit_rate = static_cast<double>(delta_hits) / hit_moves;

  print_header("simulator throughput (50 tasks, 20 devices)");
  std::printf("%-32s %14.0f sims/sec\n", "simulate (allocating)", alloc_sps);
  std::printf("%-32s %14.0f sims/sec\n", "simulate_into (workspace)", ws_sps);
  std::printf("%-32s %13.2fx\n", "workspace speedup", ws_sps / alloc_sps);
  std::printf("%-32s %14.3f\n", "delta hit rate (deep instance)", delta_hit_rate);
  std::printf("%-32s %14s\n", "delta bitwise identical", delta_bitwise ? "yes" : "NO");

  // ---- 2. search steps/sec -----------------------------------------------
  const int rounds = scale.full ? 200 : 40;
  const auto make_env = [&](std::mt19937_64& rng) {
    return PlacementSearchEnv(g, n, lat, makespan_objective(lat),
                              random_placement(g, n, rng), denom);
  };
  RandomTaskEftPolicy eft_policy;
  const double eft_steps = measure_steps_per_sec(eft_policy, g, make_env, rounds);
  GreedySweepPolicy sweep_policy;
  const double sweep_steps = measure_steps_per_sec(sweep_policy, g, make_env, rounds);
  // Random-task-eft searches on the deep instance, untimed: the share of
  // environment steps that took the delta path. (The sweep policy's greedy
  // move goes to an early task, whose replay has no prefix worth reusing: its
  // rate reads 0 on this instance too.)
  std::uint64_t env_delta_hits = 0, env_delta_total = 0;
  {
    const double deep_denom = slr_denominator(dg, dn, lat);
    for (int r = 0; r < 10; ++r) {
      std::mt19937_64 rng(300 + r);
      PlacementSearchEnv env(dg, dn, lat, makespan_objective(lat),
                             random_placement(dg, dn, rng), deep_denom);
      run_search(eft_policy, env, 2 * dg.num_tasks(), rng);
      env_delta_hits += env.delta_simulations_run();
      env_delta_total += env.delta_simulations_run() + env.delta_fallbacks();
    }
  }
  const double env_hit_rate =
      static_cast<double>(env_delta_hits) / static_cast<double>(env_delta_total);

  print_header("search steps/sec (2|V| steps per search)");
  std::printf("%-34s %12.0f steps/sec\n", "Random-task-eft", eft_steps);
  std::printf("%-34s %12.0f steps/sec\n", "feature sweep (batched est)", sweep_steps);
  std::printf("%-34s %12.3f (deep instance: env steps taking the delta path)\n",
              "  delta hit rate", env_hit_rate);

  // ---- 3. parallel evaluation layer --------------------------------------
  const Dataset batch = generate_dataset({gp}, {np}, scale.full ? 24 : 12, 2, gen_rng);
  const std::vector<Case> cases = make_cases(batch, scale.full ? 32 : 16);
  const eval::PolicyFactory factory = [] {
    return std::make_unique<RandomTaskEftPolicy>();
  };
  // Warmup: size every worker's buffers and fault in the case data before
  // either timed run (first-touch costs otherwise land on the serial leg).
  eval::policy_finals(factory, cases, lat, 0.0, 555, /*threads=*/1);
  eval::policy_finals(factory, cases, lat, 0.0, 555, /*threads=*/0);
  auto t0 = Clock::now();
  const std::vector<double> serial = eval::policy_finals(factory, cases, lat, 0.0, 555,
                                                         /*threads=*/1);
  const double serial_sec = seconds_since(t0);
  t0 = Clock::now();
  const std::vector<double> parallel = eval::policy_finals(factory, cases, lat, 0.0, 555,
                                                           /*threads=*/0);
  const double parallel_sec = seconds_since(t0);
  bool bitwise = serial.size() == parallel.size();
  for (std::size_t i = 0; bitwise && i < serial.size(); ++i) {
    bitwise = serial[i] == parallel[i];
  }
  const int threads = util::resolve_threads(0);

  print_header("parallel policy_finals");
  std::printf("%-32s %14.3f s\n", "serial (1 thread)", serial_sec);
  char label[64];
  std::snprintf(label, sizeof(label), "parallel (%d threads)", threads);
  std::printf("%-32s %14.3f s\n", label, parallel_sec);
  std::printf("%-32s %13.2fx\n", "speedup", serial_sec / parallel_sec);
  std::printf("%-32s %14s\n", "bitwise identical", bitwise ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_eval.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"case\": {\"tasks\": %d, \"devices\": %d},\n"
                 "  \"simulate_sims_per_sec\": %.1f,\n"
                 "  \"simulate_into_sims_per_sec\": %.1f,\n"
                 "  \"workspace_speedup\": %.3f,\n"
                 "  \"delta_hit_rate\": %.4f,\n"
                 "  \"delta_bitwise_identical\": %s,\n"
                 "  \"env_delta_hit_rate\": %.4f,\n"
                 "  \"eft_steps_per_sec\": %.1f,\n"
                 "  \"steps_per_sec\": %.1f,\n"
                 "  \"parallel_finals\": {\n"
                 "    \"cases\": %d,\n"
                 "    \"threads\": %d,\n"
                 "    \"serial_sec\": %.4f,\n"
                 "    \"parallel_sec\": %.4f,\n"
                 "    \"speedup\": %.3f,\n"
                 "    \"bitwise_identical\": %s\n"
                 "  }\n"
                 "}\n",
                 g.num_tasks(), n.num_devices(), alloc_sps, ws_sps, ws_sps / alloc_sps,
                 delta_hit_rate, delta_bitwise ? "true" : "false", env_hit_rate,
                 eft_steps, sweep_steps,
                 static_cast<int>(cases.size()), threads, serial_sec, parallel_sec,
                 serial_sec / parallel_sec, bitwise ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_eval.json\n");
  }
  if (!std::isfinite(guard)) std::printf("guard %f\n", guard);
  return bitwise && delta_bitwise ? 0 : 1;
}
