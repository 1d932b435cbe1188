// The rollout engine's determinism contract (reinforce.hpp): losses, stats,
// checkpoints, and final parameters are bitwise identical at any
// rollout_workers count, and a mid-batch checkpoint resumed under parallel
// rollouts reproduces the sequential trajectory exactly.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/random_policies.hpp"
#include "core/giph_agent.hpp"
#include "core/reinforce.hpp"
#include "gen/dataset.hpp"

namespace giph {
namespace {

const DefaultLatencyModel kLat;

Dataset small_dataset() {
  std::mt19937_64 rng(321);
  TaskGraphParams gp;
  gp.num_tasks = 6;
  NetworkParams np;
  np.num_devices = 3;
  return generate_dataset({gp}, {np}, 3, 2, rng);
}

InstanceSampler sampler_for(const Dataset& ds) {
  return [&ds](std::mt19937_64& rng) {
    std::uniform_int_distribution<std::size_t> gi(0, ds.graphs.size() - 1);
    std::uniform_int_distribution<std::size_t> ni(0, ds.networks.size() - 1);
    return ProblemInstance{&ds.graphs[gi(rng)], &ds.networks[ni(rng)]};
  };
}

struct TrainResult {
  TrainStats stats;
  std::vector<nn::Matrix> params;
};

TrainResult train_giph(const Dataset& ds, TrainOptions topt, bool critic = false) {
  GiPHOptions o;
  o.seed = 11;
  o.use_critic = critic;
  GiPHAgent agent(o);
  TrainResult r;
  r.stats = train_reinforce(agent, kLat, sampler_for(ds), topt);
  for (const nn::Var& p : agent.parameters()) r.params.push_back(p->value);
  return r;
}

void expect_bitwise_equal(const TrainResult& a, const TrainResult& b) {
  EXPECT_EQ(a.stats.episode_initial, b.stats.episode_initial);
  EXPECT_EQ(a.stats.episode_final, b.stats.episode_final);
  EXPECT_EQ(a.stats.episode_best, b.stats.episode_best);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t k = 0; k < a.params.size(); ++k) {
    const nn::Matrix& ma = a.params[k];
    const nn::Matrix& mb = b.params[k];
    ASSERT_EQ(ma.rows(), mb.rows());
    ASSERT_EQ(ma.cols(), mb.cols());
    for (std::size_t i = 0; i < ma.size(); ++i) {
      EXPECT_EQ(ma.data()[i], mb.data()[i]) << "param " << k << " scalar " << i;
    }
  }
}

TEST(RolloutDeterminism, WorkerCountsProduceBitwiseIdenticalTraining) {
  const Dataset ds = small_dataset();
  TrainOptions topt;
  topt.episodes = 12;
  topt.batch_episodes = 4;
  topt.noise = 0.05;  // noisy objective draws from the per-episode RNG
  topt.seed = 71;

  topt.rollout_workers = 1;
  const TrainResult sequential = train_giph(ds, topt);
  for (const int workers : {2, 8}) {
    topt.rollout_workers = workers;
    const TrainResult parallel = train_giph(ds, topt);
    SCOPED_TRACE("rollout_workers = " + std::to_string(workers));
    expect_bitwise_equal(sequential, parallel);
  }
}

TEST(RolloutDeterminism, CriticVariantIsWorkerCountInvariant) {
  const Dataset ds = small_dataset();
  TrainOptions topt;
  topt.episodes = 8;
  topt.batch_episodes = 4;
  topt.seed = 72;

  topt.rollout_workers = 1;
  const TrainResult sequential = train_giph(ds, topt, /*critic=*/true);
  topt.rollout_workers = 8;
  const TrainResult parallel = train_giph(ds, topt, /*critic=*/true);
  expect_bitwise_equal(sequential, parallel);
}

TEST(RolloutDeterminism, PartialFinalBatchIsWorkerCountInvariant) {
  const Dataset ds = small_dataset();
  TrainOptions topt;
  topt.episodes = 10;  // 4 + 4 + a partial batch of 2, which never steps
  topt.batch_episodes = 4;
  topt.seed = 73;

  topt.rollout_workers = 1;
  const TrainResult sequential = train_giph(ds, topt);
  topt.rollout_workers = 8;
  const TrainResult parallel = train_giph(ds, topt);
  expect_bitwise_equal(sequential, parallel);
}

TEST(RolloutDeterminism, ParallelFirstRunOnFreshDatasetIsSafeAndIdentical) {
  // The first thing that ever touches these graphs is the 8-worker batch, so
  // several workers race to build each graph's lazy topo/levels cache —
  // exactly the cold-start path a user hits calling train_reinforce with
  // rollout_workers > 1 on a fresh dataset. The TSan CI leg turns any race
  // here into a failure; the bitwise check below guards the result.
  const Dataset fresh_a = small_dataset();
  TrainOptions topt;
  topt.episodes = 8;
  topt.batch_episodes = 8;  // one big batch: all episodes fan out at once
  topt.seed = 76;
  topt.rollout_workers = 8;
  const TrainResult parallel = train_giph(fresh_a, topt);

  const Dataset fresh_b = small_dataset();  // same seed -> identical dataset
  topt.rollout_workers = 1;
  const TrainResult sequential = train_giph(fresh_b, topt);
  expect_bitwise_equal(sequential, parallel);
}

TEST(RolloutDeterminism, MidBatchResumeUnderParallelRolloutsMatchesSequential) {
  const Dataset ds = small_dataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "giph_rollout_ckpt.txt").string();
  std::filesystem::remove(path);

  // Reference: uninterrupted sequential run.
  TrainOptions straight;
  straight.episodes = 12;
  straight.batch_episodes = 4;
  straight.seed = 74;
  straight.rollout_workers = 1;
  const TrainResult expected = train_giph(ds, straight);

  // Crash mid-batch: checkpoint_every = 3 is not a multiple of the batch
  // size, so the episode-6 checkpoint carries a half-accumulated gradient.
  TrainOptions part = straight;
  part.episodes = 6;
  part.checkpoint_every = 3;
  part.checkpoint_path = path;
  part.rollout_workers = 8;
  train_giph(ds, part);
  ASSERT_TRUE(std::filesystem::exists(path));

  TrainOptions rest = part;
  rest.episodes = straight.episodes;
  rest.resume = true;
  const TrainResult resumed = train_giph(ds, rest);
  expect_bitwise_equal(expected, resumed);
  std::filesystem::remove(path);
}

TEST(RolloutDeterminism, NonCloneablePolicyTrainsSequentially) {
  // A policy without clone_for_rollout support must still train (and
  // identically) when workers are requested.
  class NonCloneable final : public SearchPolicy {
   public:
    ActionDecision decide(PlacementSearchEnv& env, std::mt19937_64& rng,
                          bool) override {
      std::uniform_int_distribution<int> pick(0, env.graph().num_tasks() - 1);
      const int task = pick(rng);
      const auto& devs = env.feasible()[task];
      std::uniform_int_distribution<int> dpick(0, static_cast<int>(devs.size()) - 1);
      return ActionDecision{SearchAction{task, devs[dpick(rng)]}, nullptr,
                            std::nullopt};
    }
    std::string name() const override { return "noclone"; }
  };

  const Dataset ds = small_dataset();
  TrainOptions topt;
  topt.episodes = 6;
  topt.batch_episodes = 3;
  topt.seed = 75;

  NonCloneable seq_policy;
  topt.rollout_workers = 1;
  const TrainStats s1 = train_reinforce(seq_policy, kLat, sampler_for(ds), topt);
  NonCloneable par_policy;
  topt.rollout_workers = 8;
  const TrainStats s2 = train_reinforce(par_policy, kLat, sampler_for(ds), topt);
  EXPECT_EQ(s1.episode_initial, s2.episode_initial);
  EXPECT_EQ(s1.episode_final, s2.episode_final);
  EXPECT_EQ(s1.episode_best, s2.episode_best);
}

TEST(RolloutDeterminism, BatchEpisodesRunConcurrently) {
  // Two rollout workers run a batch's two episodes at the same time. Each
  // policy copy (the caller's and its clone) waits on its first decide until
  // the other has arrived, for at most 30 s: episodes run one after another
  // would leave the first waiting alone until it times out.
  struct Rendezvous {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    int timeouts = 0;
  };
  class MeetingPolicy final : public SearchPolicy {
   public:
    explicit MeetingPolicy(std::shared_ptr<Rendezvous> r) : r_(std::move(r)) {}
    ActionDecision decide(PlacementSearchEnv& env, std::mt19937_64& rng, bool) override {
      if (!met_) {
        met_ = true;
        std::unique_lock<std::mutex> lock(r_->mu);
        ++r_->arrived;
        r_->cv.notify_all();
        if (!r_->cv.wait_for(lock, std::chrono::seconds(30),
                             [this] { return r_->arrived >= 2; })) {
          ++r_->timeouts;
        }
      }
      std::uniform_int_distribution<int> pick(0, env.graph().num_tasks() - 1);
      const int task = pick(rng);
      const auto& devs = env.feasible()[task];
      std::uniform_int_distribution<int> dpick(0, static_cast<int>(devs.size()) - 1);
      return ActionDecision{SearchAction{task, devs[dpick(rng)]}, nullptr, std::nullopt};
    }
    std::unique_ptr<SearchPolicy> clone_for_rollout() const override {
      return std::make_unique<MeetingPolicy>(r_);
    }
    std::string name() const override { return "meeting"; }

   private:
    std::shared_ptr<Rendezvous> r_;
    bool met_ = false;
  };

  const Dataset ds = small_dataset();
  TrainOptions topt;
  topt.episodes = 2;
  topt.batch_episodes = 2;
  topt.rollout_workers = 2;
  const auto rendezvous = std::make_shared<Rendezvous>();
  MeetingPolicy policy(rendezvous);
  const TrainStats stats = train_reinforce(policy, kLat, sampler_for(ds), topt);
  EXPECT_EQ(stats.episode_final.size(), 2u);
  std::lock_guard<std::mutex> lock(rendezvous->mu);
  EXPECT_EQ(rendezvous->arrived, 2);
  EXPECT_EQ(rendezvous->timeouts, 0);
}

TEST(RolloutDeterminism, ResumeFromV1CheckpointExplainsFormatChange) {
  // v1 checkpoints (pre-parallel-rollout trainer) carried sequential RNG
  // state the v2 trainer cannot honor. Resuming against one must fail with a
  // message that names the format change, not a generic "bad header".
  const std::string path =
      (std::filesystem::temp_directory_path() / "giph_v1_ckpt.txt").string();
  {
    std::ofstream out(path);
    out << "reinforce-checkpoint v1\n0\n";
  }
  const Dataset ds = small_dataset();
  GiPHAgent agent(GiPHOptions{});
  TrainOptions topt;
  topt.episodes = 2;
  topt.resume = true;
  topt.checkpoint_path = path;
  try {
    train_reinforce(agent, kLat, sampler_for(ds), topt);
    FAIL() << "expected a v1-format error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("v1 format"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("delete it"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(TrainOptionsValidation, RejectsOutOfRangeValues) {
  TrainOptions opt;
  opt.rollout_workers = 0;
  EXPECT_THROW(validate_train_options(opt), std::invalid_argument);
  opt = TrainOptions{};
  opt.batch_episodes = 0;
  EXPECT_THROW(validate_train_options(opt), std::invalid_argument);
  opt = TrainOptions{};
  opt.checkpoint_every = -1;
  EXPECT_THROW(validate_train_options(opt), std::invalid_argument);
  EXPECT_NO_THROW(validate_train_options(TrainOptions{}));
}

TEST(TrainOptionsValidation, TrainReinforceRejectsBadOptions) {
  const Dataset ds = small_dataset();
  RandomWalkPolicy policy;
  TrainOptions opt;
  opt.rollout_workers = -2;
  EXPECT_THROW(train_reinforce(policy, kLat, sampler_for(ds), opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace giph
