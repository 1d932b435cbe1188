#pragma once

#include <string>
#include <vector>

#include "core/reinforce.hpp"
#include "core/search_policy.hpp"
#include "eval/ascii_chart.hpp"
#include "eval/evaluation.hpp"
#include "gen/dataset.hpp"

namespace giph::bench {

// The generic evaluation machinery lives in src/eval; the benches use it
// through these aliases.
using eval::Case;
using eval::Curve;
using eval::curve_fractions;
using eval::mean;
using eval::percentile;
using eval::stdev;

/// Benchmark scale. Default is sized for a quick single-core run of the whole
/// bench suite; set GIPH_BENCH_SCALE=full for paper-scale episode counts and
/// dataset sizes (the paper trains 200 episodes and tests on hundreds of
/// cases).
struct Scale {
  bool full = false;
  int train_episodes = 300;   ///< paper: 200 (our REINFORCE needs more, see DESIGN.md)
  int train_graphs = 30;      ///< paper: 150 (single-network case)
  int train_networks = 5;
  int test_cases = 24;        ///< paper: 150-500
  int eval_every = 20;        ///< convergence-curve sampling (paper: 5)
  int eval_cases = 8;         ///< paper: 20

  static Scale from_env();
};

/// Training hyperparameters used across the benches. The paper trains with
/// Adam lr 0.01 and gamma 0.97; our from-scratch REINFORCE is most stable
/// with a slightly lower lr and stronger discounting (documented in
/// EXPERIMENTS.md) - the qualitative results are the reproduction target.
TrainOptions train_options(const Scale& scale);

/// Cartesian product of dataset graphs x networks, truncated to max_cases
/// (round-robin over networks for variety).
std::vector<Case> make_cases(const Dataset& ds, int max_cases);

/// Uniform sampler over a dataset (training).
InstanceSampler dataset_sampler(const Dataset& ds);

inline Curve evaluate_policy_curve(SearchPolicy& policy, const std::vector<Case>& cases,
                                   const LatencyModel& lat, double noise,
                                   std::uint64_t seed, int curve_points = 9) {
  return eval::policy_curve(policy, cases, lat, noise, seed, curve_points);
}

inline std::vector<double> evaluate_policy_final(SearchPolicy& policy,
                                                 const std::vector<Case>& cases,
                                                 const LatencyModel& lat, double noise,
                                                 std::uint64_t seed) {
  return eval::policy_finals(policy, cases, lat, noise, seed);
}

inline std::vector<double> heft_final(const std::vector<Case>& cases,
                                      const LatencyModel& lat) {
  return eval::heft_finals(cases, lat);
}

/// Prints a curve table (one row per sampled step fraction, one column per
/// policy) followed by an ASCII chart of the same series.
void print_curves(const std::string& title, const std::vector<Curve>& curves);

/// Prints "=== title ===".
void print_header(const std::string& title);

}  // namespace giph::bench
