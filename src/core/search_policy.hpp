#pragma once

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/search_env.hpp"
#include "nn/autograd.hpp"

namespace giph {

/// One decision of a search policy: the action plus (for learned policies)
/// the differentiable log-probability used by REINFORCE. Heuristic policies
/// leave log_prob null. A policy that replaces the entire placement per step
/// (the paper's random-sampling baseline) sets `full` instead of `action`.
struct ActionDecision {
  SearchAction action;
  nn::Var log_prob;
  std::optional<Placement> full;
  /// Optional state-value estimate V(s_t) from a critic head (actor-critic
  /// extension); when every step of an episode provides one, the REINFORCE
  /// trainer uses it as the baseline and adds a value-regression loss.
  nn::Var value;
};

/// Interface shared by all search-based placement policies: GiPH, its
/// ablation variants, GiPH-task-EFT, Random-task-EFT, random sampling, and
/// Placeto. A policy inspects the environment's current state and proposes
/// the next relocation; the caller applies it.
class SearchPolicy {
 public:
  virtual ~SearchPolicy() = default;

  virtual ActionDecision decide(PlacementSearchEnv& env, std::mt19937_64& rng,
                                bool greedy) = 0;

  /// Inference-only decide: the same action and RNG draws, for search loops
  /// that never learn (serving, evaluation, the hierarchical coarse search,
  /// all through run_search_anytime). A learned policy may leave log_prob
  /// and value null and skip the autograd tape; the REINFORCE rollout keeps
  /// calling decide. Default: decide.
  virtual ActionDecision act(PlacementSearchEnv& env, std::mt19937_64& rng, bool greedy) {
    return decide(env, rng, greedy);
  }

  /// Trainable parameters (empty for heuristics).
  virtual std::vector<nn::Var> parameters() { return {}; }

  /// A fresh policy of the same architecture for a parallel rollout worker,
  /// or null when the policy does not support cloning. The clone carries its
  /// own parameter leaves and per-episode state, so concurrent rollouts never
  /// share mutable buffers; the trainer broadcasts the master parameter
  /// *values* into each clone (nn::copy_values) before every batch, which is
  /// why parameters() of a clone must enumerate parameters in the same order
  /// as the original. Policies that return null are trained on the single
  /// master instance (the sequential path) regardless of the requested
  /// worker count.
  virtual std::unique_ptr<SearchPolicy> clone_for_rollout() const { return nullptr; }

  /// Resets per-episode internal state (e.g. Placeto's traversal cursor).
  virtual void begin_episode() {}

  /// Natural episode length for graph g, or -1 for "no limit" (use the
  /// caller's default, 2|V| in the paper). Placeto returns |V|: it visits
  /// each node exactly once and must restart afterwards.
  virtual int episode_limit(const TaskGraph& g) const {
    (void)g;
    return -1;
  }

  virtual std::string name() const = 0;
};

}  // namespace giph
