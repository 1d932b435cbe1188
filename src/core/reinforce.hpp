#pragma once

#include <functional>

#include "core/search_policy.hpp"
#include "nn/optimizer.hpp"

namespace giph {

/// One training problem instance; pointers must outlive the call.
struct ProblemInstance {
  const TaskGraph* graph = nullptr;
  const DeviceNetwork* network = nullptr;
};

/// Draws a (G, N) pair per episode from the training set.
using InstanceSampler = std::function<ProblemInstance(std::mt19937_64&)>;

/// Builds the per-episode objective for an instance (rng available for noisy
/// objectives). Null = makespan (with TrainOptions::noise applied). The
/// objective is schedule-aware: it receives the environment's noise-free
/// schedule per evaluation (an objective that models something else may
/// ignore it and simulate on its own).
using ObjectiveFactory = std::function<ScheduleObjective(
    const TaskGraph&, const DeviceNetwork&, std::mt19937_64&)>;

/// Per-instance normalizer for the objective (rewards become scale-free
/// across instances). Null = the SLR denominator.
using NormalizerFn = std::function<double(const TaskGraph&, const DeviceNetwork&)>;

/// REINFORCE training options (Appendix B.7). The objective per episode is
/// the SLR (makespan normalized by the instance's lower bound), optionally
/// with simulation noise.
struct TrainOptions {
  int episodes = 200;
  int episode_len_factor = 2;  ///< T = factor * |V| unless the policy sets a limit
  double gamma = 0.97;
  double lr = 0.01;
  /// Final learning rate; when < lr, the rate decays linearly over the
  /// episodes (stabilizes late REINFORCE training). Default: no decay.
  double lr_final = -1.0;
  double noise = 0.0;  ///< multiplicative simulation noise during training
  /// Scale step t's gradient by gamma^t (the strict discounted policy
  /// gradient, as in the paper's Appendix B.7 update). Disabling uses the
  /// common undiscounted-state-distribution variant.
  bool discount_state_weight = true;
  /// Standardize advantages within each episode (variance reduction).
  bool normalize_advantages = false;
  /// Accumulate gradients over this many episodes before each optimizer step
  /// (variance reduction; 1 = update every episode as in the paper).
  int batch_episodes = 1;
  /// Number of parallel rollout workers. With > 1, the episodes of each
  /// batch_episodes group run concurrently, one per worker, each on a private
  /// policy clone (shared parameter values, per-worker activation/gradient
  /// buffers), environment, workspace, and RNG; per-episode gradients are
  /// reduced into the optimizer in episode order, so losses, checkpoints,
  /// and final parameters are bitwise identical at any worker count.
  /// Requires the policy to support clone_for_rollout() (non-cloneable
  /// policies are trained sequentially regardless) and the sampler/factories
  /// to be safe to call concurrently. Capped at batch_episodes: with
  /// batch_episodes == 1 every update depends on the previous one, so there
  /// is nothing to parallelize.
  int rollout_workers = 1;
  std::uint64_t seed = 7;
  /// Crash-safe checkpointing: every `checkpoint_every` episodes the trainer
  /// writes parameters, optimizer moments, RNG state, and stats so far to
  /// `checkpoint_path` - atomically, via `path.tmp` + rename, so a crash
  /// mid-write never corrupts the previous checkpoint. 0 disables.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  /// When true and `checkpoint_path` exists, training resumes from it and
  /// reproduces the exact trajectory an uninterrupted run would have had
  /// (same per-episode losses, same final parameters).
  bool resume = false;
  /// Called after each episode with (episode index, stats so far); optional.
  std::function<void(int)> on_episode;
  /// Custom training objective (e.g. total cost, energy); null = makespan.
  ObjectiveFactory objective_factory;
  /// Custom objective normalizer; null = SLR denominator.
  NormalizerFn normalizer;
};

struct TrainStats {
  std::vector<double> episode_initial;  ///< objective of the initial placement
  std::vector<double> episode_final;    ///< objective after the last step
  std::vector<double> episode_best;     ///< best objective within the episode
};

/// Rejects out-of-range training options up front with a clear error
/// (std::invalid_argument): rollout_workers and batch_episodes must be >= 1,
/// checkpoint_every >= 0. Called by train_reinforce; exposed for callers
/// that validate configuration before committing to a long run.
void validate_train_options(const TrainOptions& opt);

/// Trains `policy` with the policy-gradient method REINFORCE: per-episode
/// Monte-Carlo returns with discount gamma and a per-step baseline equal to
/// the average reward observed before that step in the episode. Non-learned
/// policies (no parameters) are simply rolled out, which measures their
/// search behavior under identical conditions.
///
/// Episode e draws all its randomness (instance, objective noise, initial
/// placement, action sampling) from a private RNG seeded with a splitmix64
/// mix of (seed + e) — mixed so adjacent episodes get decorrelated streams —
/// and
/// per-episode gradients are reduced into the optimizer in episode order, so
/// the trajectory is a pure function of the options — independent of the
/// rollout worker count and resumable mid-batch from a checkpoint.
TrainStats train_reinforce(SearchPolicy& policy, const LatencyModel& lat,
                           const InstanceSampler& sampler, const TrainOptions& opt);

/// Best-so-far objective trace of a single search run.
struct SearchTrace {
  double initial = 0.0;
  std::vector<double> best_so_far;  ///< after each step (size = steps)
  Placement best_placement;
  std::vector<int> move_counts;  ///< per task: how often it was relocated
};

/// Runs `policy` on `env` for `steps` steps, restarting the search (reset to
/// the initial placement) whenever the policy's episode_limit is reached,
/// e.g. every |V| steps for Placeto. Steps through SearchPolicy::act, the
/// tape-free path, since a search does not learn.
SearchTrace run_search(SearchPolicy& policy, PlacementSearchEnv& env, int steps,
                       std::mt19937_64& rng, bool greedy = false);

/// Predicate consulted between search steps by the anytime variant below;
/// returning true ends the search immediately with best-so-far results.
using SearchStop = std::function<bool()>;

/// Anytime variant of run_search — the serving deadline seam. `stop` is
/// evaluated before every step; when it fires the search returns its
/// best-so-far trace immediately (never blocking longer than one policy step
/// past the stop signal) and `*stopped_early` (optional) is set. Determinism
/// contract, enforced by tests: with a stop that never fires the trace is
/// bitwise identical to run_search(policy, env, steps, ...), and a stop that
/// fires after exactly k evaluations is bitwise identical to
/// run_search(policy, env, k, ...) — stopping only truncates, it never
/// perturbs the steps already taken.
SearchTrace run_search_anytime(SearchPolicy& policy, PlacementSearchEnv& env, int steps,
                               std::mt19937_64& rng, bool greedy, const SearchStop& stop,
                               bool* stopped_early = nullptr);

}  // namespace giph
