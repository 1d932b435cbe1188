#include "core/reinforce.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/checked_file.hpp"
#include "util/parallel_for.hpp"

namespace giph {
namespace {

/// Global gradient-norm bound applied to each batch gradient before the
/// optimizer step.
constexpr double kGradClip = 10.0;
/// Weight of the critic's value-regression loss when the policy provides
/// state-value estimates (actor-critic extension).
constexpr double kValueCoef = 0.25;

/// splitmix64 finalizer. mt19937_64 seeded with adjacent integers can emit
/// correlated early outputs across episodes; mixing (seed + episode) through
/// a bijective avalanche first decorrelates the streams while keeping the
/// per-episode seed a pure function of (seed, episode).
std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void write_doubles(std::ostream& out, const std::vector<double>& xs) {
  out << xs.size();
  for (double x : xs) out << " " << x;
  out << "\n";
}

std::vector<double> read_doubles(std::istream& in) {
  std::size_t count = 0;
  in >> count;
  std::vector<double> xs(count);
  for (double& x : xs) in >> x;
  return xs;
}

void write_matrix(std::ostream& out, const nn::Matrix& m) {
  out << m.rows() << " " << m.cols() << "\n";
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) out << m(r, c) << (c + 1 == m.cols() ? '\n' : ' ');
  }
}

/// Atomic checkpoint write: everything needed to resume with an identical
/// trajectory - episode cursor, stats, parameter values, the partially
/// accumulated batch gradient, Adam moments. Streamed as text at
/// max_digits10, which round-trips exactly. No RNG state is needed: every
/// episode reseeds its private RNG from mix_seed(seed + episode index).
void save_checkpoint(const std::string& path, int next_episode, const TrainStats& stats,
                     const std::vector<nn::Var>& params,
                     const std::vector<nn::Matrix>& grad_accum, const nn::Adam* adam) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "reinforce-checkpoint v2\n" << next_episode << "\n";
  write_doubles(out, stats.episode_initial);
  write_doubles(out, stats.episode_final);
  write_doubles(out, stats.episode_best);
  out << params.size() << "\n";
  for (const nn::Var& p : params) write_matrix(out, p->value);
  // The gradient accumulated so far within the current batch (empty slots
  // are parameters untouched since the last optimizer step); a checkpoint
  // mid-batch must carry it or the resumed run would lose those episodes'
  // contribution to the next update.
  for (std::size_t k = 0; k < params.size(); ++k) {
    if (k < grad_accum.size() && grad_accum[k].size() > 0) {
      out << 1 << "\n";
      write_matrix(out, grad_accum[k]);
    } else {
      out << 0 << "\n";
    }
  }
  out << (adam != nullptr ? 1 : 0) << "\n";
  if (adam != nullptr) adam->save(out);
  // Checksum + length frame, committed via write-to-temp + atomic rename:
  // a crash mid-write keeps the previous checkpoint valid, and a torn copy
  // (power loss between write and rename of a non-atomic filesystem, manual
  // truncation) fails loudly at resume instead of resuming from garbage.
  util::write_checked_file(path, "reinforce-checkpoint", out.str());
}

void read_matrix_into(std::istream& in, nn::Matrix& m, const std::string& path) {
  int rows = 0, cols = 0;
  in >> rows >> cols;
  if (!in || rows != m.rows() || cols != m.cols()) {
    throw std::runtime_error("checkpoint: matrix shape mismatch in " + path);
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) in >> m(r, c);
  }
}

/// Restores a checkpoint written by save_checkpoint; returns the episode to
/// resume from. Throws std::runtime_error on malformed input or a parameter
/// shape mismatch (e.g. resuming with a different model variant).
int load_checkpoint(const std::string& path, TrainStats& stats,
                    const std::vector<nn::Var>& params,
                    std::vector<nn::Matrix>& grad_accum, nn::Adam* adam) {
  // Validates the checksum + length frame when present (torn-write
  // detection); pre-framing checkpoints pass through unwrapped.
  std::istringstream in(util::read_checked_file(path, "reinforce-checkpoint"));
  std::string magic, version;
  in >> magic >> version;
  if (!in || magic != "reinforce-checkpoint") {
    throw std::runtime_error("checkpoint: bad header in " + path);
  }
  if (version == "v1") {
    throw std::runtime_error(
        "checkpoint: " + path +
        " uses the retired v1 format (pre-parallel-rollout trainer, carries "
        "sequential RNG state that no longer exists); delete it and restart "
        "training — v2 checkpoints are RNG-free and worker-count independent");
  }
  if (version != "v2") {
    throw std::runtime_error("checkpoint: unknown format version '" + version +
                             "' in " + path + " (this build reads v2)");
  }
  int next_episode = 0;
  in >> next_episode;
  stats.episode_initial = read_doubles(in);
  stats.episode_final = read_doubles(in);
  stats.episode_best = read_doubles(in);
  std::size_t count = 0;
  in >> count;
  if (!in || count != params.size()) {
    throw std::runtime_error("checkpoint: parameter count mismatch in " + path);
  }
  for (const nn::Var& p : params) read_matrix_into(in, p->value, path);
  grad_accum.assign(params.size(), nn::Matrix());
  for (std::size_t k = 0; k < params.size(); ++k) {
    int present = 0;
    in >> present;
    if (!in) throw std::runtime_error("checkpoint: truncated file " + path);
    if (present != 0) {
      grad_accum[k] = nn::Matrix::zeros(params[k]->value.rows(), params[k]->value.cols());
      read_matrix_into(in, grad_accum[k], path);
    }
  }
  int has_adam = 0;
  in >> has_adam;
  if (!in) throw std::runtime_error("checkpoint: truncated file " + path);
  if (has_adam != 0) {
    if (adam == nullptr) {
      throw std::runtime_error("checkpoint: optimizer state present but unused in " +
                               path);
    }
    adam->load(in);
  }
  return next_episode;
}

/// Everything one episode hands back to the (ordered) reduction: the stats
/// row and, for learned policies, this episode's parameter gradient.
struct EpisodeOutcome {
  double initial = 0.0;
  double final_obj = 0.0;
  double best = 0.0;
  bool has_grads = false;
  std::vector<nn::Matrix> grads;  ///< per-param; empty entries were untouched
};

/// One rollout worker's long-lived state. Worker 0 wraps the caller's policy;
/// workers >= 1 own same-architecture clones whose parameter values are
/// re-broadcast from the master before every batch. The environment is
/// reused across episodes (reinit) so steady-state training allocates no
/// fresh workspaces.
struct RolloutWorker {
  SearchPolicy* policy = nullptr;
  std::unique_ptr<SearchPolicy> owned;
  std::vector<nn::Var> params;
  std::optional<PlacementSearchEnv> env;
  std::mt19937_64 rng;
};

/// Rolls out episode `episode` on worker `w` and computes its REINFORCE (or
/// actor-critic) gradient into the worker's private parameter buffers, which
/// are then moved into the returned outcome. All randomness comes from the
/// worker's RNG reseeded with mix_seed(seed + episode), so the result depends
/// only on (options, episode index, parameter values) — not on which worker
/// ran it.
EpisodeOutcome run_episode(RolloutWorker& w, const LatencyModel& lat,
                           const InstanceSampler& sampler, const TrainOptions& opt,
                           int episode) {
  w.rng.seed(mix_seed(opt.seed + static_cast<std::uint64_t>(episode)));
  std::mt19937_64& rng = w.rng;
  const ProblemInstance inst = sampler(rng);
  const TaskGraph& g = *inst.graph;
  const DeviceNetwork& n = *inst.network;

  const double denom = opt.normalizer ? opt.normalizer(g, n) : slr_denominator(g, n, lat);
  ScheduleObjective obj;
  if (opt.objective_factory) {
    obj = opt.objective_factory(g, n, rng);
  } else {
    obj = opt.noise > 0.0 ? noisy_makespan_objective(lat, opt.noise, rng)
                          : makespan_objective(lat);
  }
  Placement initial = random_placement(g, n, rng);
  if (w.env) {
    w.env->reinit(g, n, std::move(obj), std::move(initial), denom);
  } else {
    w.env.emplace(g, n, lat, std::move(obj), std::move(initial), denom);
  }
  PlacementSearchEnv& env = *w.env;
  SearchPolicy& policy = *w.policy;

  const int limit = policy.episode_limit(g);
  const int T = limit > 0 ? limit : opt.episode_len_factor * g.num_tasks();

  policy.begin_episode();
  std::vector<nn::Var> log_probs;
  std::vector<nn::Var> values;
  std::vector<double> rewards;
  log_probs.reserve(T);
  rewards.reserve(T);
  EpisodeOutcome out;
  out.initial = env.objective();

  for (int t = 0; t < T; ++t) {
    ActionDecision d = policy.decide(env, rng, /*greedy=*/false);
    const double r =
        d.full ? env.apply_placement(*std::move(d.full)) : env.apply(d.action);
    if (d.log_prob) {
      log_probs.push_back(std::move(d.log_prob));
      rewards.push_back(r);
      if (d.value) values.push_back(std::move(d.value));
    }
  }
  out.final_obj = env.objective();
  out.best = env.best_objective();

  if (!w.params.empty() && !log_probs.empty()) {
    const int steps = static_cast<int>(rewards.size());
    // Discounted returns G_t.
    std::vector<double> returns(steps);
    double acc = 0.0;
    for (int t = steps - 1; t >= 0; --t) {
      acc = rewards[t] + opt.gamma * acc;
      returns[t] = acc;
    }
    // Baseline: the critic's state values when available (actor-critic
    // extension), otherwise the average reward observed before step t
    // within the episode (the paper's baseline).
    const bool use_critic = static_cast<int>(values.size()) == steps && steps > 0;
    std::vector<double> adv(steps);
    double reward_sum = 0.0;
    for (int t = 0; t < steps; ++t) {
      const double baseline =
          use_critic ? values[t]->value(0, 0) : (t > 0 ? reward_sum / t : 0.0);
      adv[t] = returns[t] - baseline;
      reward_sum += rewards[t];
    }
    if (opt.normalize_advantages && steps > 1) {
      double mean = 0.0, sq = 0.0;
      for (double a : adv) mean += a;
      mean /= steps;
      for (double a : adv) sq += (a - mean) * (a - mean);
      const double sd = std::sqrt(sq / steps);
      if (sd > 1e-9) {
        for (double& a : adv) a = (a - mean) / sd;
      }
    }
    std::vector<double> weights(steps);
    for (int t = 0; t < steps; ++t) {
      const double w_t = opt.discount_state_weight ? std::pow(opt.gamma, t) : 1.0;
      weights[t] = -w_t * adv[t];
    }
    nn::Var loss = nn::weighted_sum(log_probs, weights);
    if (use_critic) {
      // Value regression towards the Monte-Carlo returns.
      std::vector<nn::Var> sq_errors;
      std::vector<double> vweights;
      sq_errors.reserve(steps);
      for (int t = 0; t < steps; ++t) {
        const nn::Var diff =
            nn::sub(values[t], nn::constant(nn::Matrix::scalar(returns[t])));
        sq_errors.push_back(nn::mul(diff, diff));
        vweights.push_back(kValueCoef / steps);
      }
      loss = nn::add(loss, nn::weighted_sum(sq_errors, vweights));
    }
    // Backward accumulates into this worker's private parameter leaves
    // (zeroed by the previous take_grads), yielding exactly this episode's
    // gradient — the reduction adds it to the master accumulator in episode
    // order.
    nn::backward(loss);
    out.grads = nn::take_grads(w.params);
    out.has_grads = true;
  }
  return out;
}

}  // namespace

void validate_train_options(const TrainOptions& opt) {
  if (opt.rollout_workers < 1) {
    throw std::invalid_argument("train_reinforce: rollout_workers must be >= 1, got " +
                                std::to_string(opt.rollout_workers));
  }
  if (opt.batch_episodes < 1) {
    throw std::invalid_argument("train_reinforce: batch_episodes must be >= 1, got " +
                                std::to_string(opt.batch_episodes));
  }
  if (opt.checkpoint_every < 0) {
    throw std::invalid_argument("train_reinforce: checkpoint_every must be >= 0, got " +
                                std::to_string(opt.checkpoint_every));
  }
}

TrainStats train_reinforce(SearchPolicy& policy, const LatencyModel& lat,
                           const InstanceSampler& sampler, const TrainOptions& opt) {
  validate_train_options(opt);
  const std::vector<nn::Var> params = policy.parameters();
  std::unique_ptr<nn::Adam> adam;
  if (!params.empty()) adam = std::make_unique<nn::Adam>(params, opt.lr);
  // The per-batch gradient, reduced from per-episode gradients in episode
  // order. Kept outside the parameter leaves so worker 0 (the master policy)
  // can compute fresh per-episode gradients without disturbing it.
  std::vector<nn::Matrix> grad_accum(params.size());
  for (const nn::Var& p : params) p->grad = nn::Matrix();

  TrainStats stats;
  int start_episode = 0;
  if (opt.resume && !opt.checkpoint_path.empty() &&
      std::filesystem::exists(opt.checkpoint_path)) {
    start_episode =
        load_checkpoint(opt.checkpoint_path, stats, params, grad_accum, adam.get());
  }

  // Rollout workers: worker 0 is the caller's policy; the rest are clones.
  // A policy that cannot clone trains sequentially regardless of the
  // requested worker count (the results are identical either way).
  int workers = std::min(opt.rollout_workers, std::max(1, opt.batch_episodes));
  std::vector<RolloutWorker> rollout(1);
  rollout[0].policy = &policy;
  rollout[0].params = params;
  for (int w = 1; w < workers; ++w) {
    std::unique_ptr<SearchPolicy> clone = policy.clone_for_rollout();
    if (!clone) {
      workers = 1;
      rollout.resize(1);
      break;
    }
    RolloutWorker worker;
    worker.policy = clone.get();
    worker.params = clone->parameters();
    worker.owned = std::move(clone);
    rollout.push_back(std::move(worker));
  }

  const int batch = opt.batch_episodes;
  int ep = start_episode;
  while (ep < opt.episodes) {
    // One gradient-accumulation group, aligned to absolute episode indices
    // so a resumed run rejoins its batch mid-way.
    const int group_end = std::min(opt.episodes, (ep / batch + 1) * batch);
    const int count = group_end - ep;
    std::vector<EpisodeOutcome> outcomes(count);
    // Broadcast the post-update parameter values to the clones that run;
    // within a batch all episodes see the same values, exactly as
    // sequentially.
    const int fan = std::min(workers, count);
    for (int w = 1; w < fan; ++w) nn::copy_values(params, rollout[w].params);
    // Worker w owns rollout[w] and takes the batch's next episode until none
    // is left. One worker runs inline on the caller, in episode order.
    std::atomic<int> next{0};
    util::parallel_for(fan, fan, [&](int w) {
      for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        outcomes[i] = run_episode(rollout[w], lat, sampler, opt, ep + i);
      }
    });

    // Ordered reduction: stats, gradient accumulation, optimizer step,
    // callbacks, and checkpoints replay the episodes in index order, so the
    // observable trajectory is the sequential one.
    for (int i = 0; i < count; ++i) {
      const int e = ep + i;
      EpisodeOutcome& out = outcomes[i];
      stats.episode_initial.push_back(out.initial);
      stats.episode_final.push_back(out.final_obj);
      stats.episode_best.push_back(out.best);
      if (out.has_grads) nn::add_grads(grad_accum, std::move(out.grads));
      if (adam && out.has_grads && (e + 1) % batch == 0) {
        if (opt.lr_final >= 0.0 && opt.lr_final < opt.lr && opt.episodes > 1) {
          const double frac = static_cast<double>(e) / (opt.episodes - 1);
          adam->set_learning_rate(opt.lr + frac * (opt.lr_final - opt.lr));
        }
        nn::install_grads(params, std::move(grad_accum));
        grad_accum.assign(params.size(), nn::Matrix());
        nn::clip_grad_norm(params, kGradClip);
        adam->step();
      }
      if (opt.on_episode) opt.on_episode(e);
      if (opt.checkpoint_every > 0 && !opt.checkpoint_path.empty() &&
          (e + 1) % opt.checkpoint_every == 0) {
        save_checkpoint(opt.checkpoint_path, e + 1, stats, params, grad_accum,
                        adam.get());
      }
    }
    ep = group_end;
  }
  return stats;
}

SearchTrace run_search(SearchPolicy& policy, PlacementSearchEnv& env, int steps,
                       std::mt19937_64& rng, bool greedy) {
  return run_search_anytime(policy, env, steps, rng, greedy, nullptr);
}

SearchTrace run_search_anytime(SearchPolicy& policy, PlacementSearchEnv& env, int steps,
                               std::mt19937_64& rng, bool greedy, const SearchStop& stop,
                               bool* stopped_early) {
  SearchTrace trace;
  if (stopped_early != nullptr) *stopped_early = false;
  trace.initial = env.objective();
  trace.move_counts.assign(env.graph().num_tasks(), 0);
  const int limit = policy.episode_limit(env.graph());

  policy.begin_episode();
  int since_reset = 0;
  for (int t = 0; t < steps; ++t) {
    // The anytime check sits between steps, before any RNG draw of step t:
    // stopping truncates the trajectory without perturbing the steps already
    // taken, so a fixed-step stop is bitwise-equal to a shorter budget.
    if (stop && stop()) {
      if (stopped_early != nullptr) *stopped_early = true;
      break;
    }
    if (limit > 0 && since_reset >= limit) {
      env.reset_to_initial();
      policy.begin_episode();
      since_reset = 0;
    }
    ActionDecision d = policy.act(env, rng, greedy);
    if (d.full) {
      // Count every task whose device changed as a move.
      for (int v = 0; v < env.graph().num_tasks(); ++v) {
        if (d.full->device_of(v) != env.placement().device_of(v)) ++trace.move_counts[v];
      }
      env.apply_placement(*std::move(d.full));
    } else {
      env.apply(d.action);
      ++trace.move_counts[d.action.task];
    }
    trace.best_so_far.push_back(env.best_objective());
    ++since_reset;
  }
  trace.best_placement = env.best_placement();
  return trace;
}

}  // namespace giph
