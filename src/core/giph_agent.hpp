#pragma once

#include <memory>

#include "core/features.hpp"
#include "core/gnn.hpp"
#include "core/search_policy.hpp"
#include "nn/optimizer.hpp"

namespace giph {

/// Configuration of a GiPH agent and its ablation variants.
struct GiPHOptions {
  GnnKind gnn = GnnKind::kGiPH;
  int embed_dim = 5;      ///< dim_o (Table 4)
  int k_steps = 3;        ///< for kGiPHK / kGraphSAGE
  bool use_gpnet = true;  ///< false = GiPH-task-EFT (RL task selection + EFT device)
  bool include_potential = true;  ///< start-time-potential node feature (Fig. 15)
  bool mask_noop = true;    ///< mask actions equal to the current placement
  bool mask_repeat = true;  ///< mask relocating the task moved in the previous step
  /// Sparse gpNet: keep only the pivot plus this many EST-ranked alternative
  /// devices per task (build_gpnet_topk). 0 = dense (all feasible pairs);
  /// any value >= num_devices is bitwise-identical to dense. The scale tier's
  /// knob for 1k+-task graphs on 100+ devices.
  int gpnet_topk = 0;
  /// Actor-critic extension: adds a value head over the mean graph embedding;
  /// the trainer then uses V(s_t) as the policy-gradient baseline.
  bool use_critic = false;
  std::uint64_t seed = 1;   ///< parameter initialization seed
};

/// The GiPH placement agent (Section 4.2): gpNet representation -> GNN
/// embedding -> per-action score policy. With use_gpnet = false it degrades
/// to GiPH-task-EFT: the GNN runs over the raw task graph, the policy picks a
/// task, and the device is chosen by earliest-finish-time.
class GiPHAgent final : public SearchPolicy {
 public:
  explicit GiPHAgent(const GiPHOptions& options);

  ActionDecision decide(PlacementSearchEnv& env, std::mt19937_64& rng,
                        bool greedy) override;
  /// decide() without the tape: the same action and RNG draws, computed by
  /// GraphEncoder::encode_into and ScorePolicy::choose over buffers this
  /// agent keeps. Once warm on an instance it builds no tape node and
  /// allocates nothing. Leaves log_prob and value null.
  ActionDecision act(PlacementSearchEnv& env, std::mt19937_64& rng, bool greedy) override;
  std::vector<nn::Var> parameters() override { return reg_.params(); }
  void begin_episode() override { scales_graph_ = scales_net_ = nullptr; }
  /// Same-architecture clone with private parameter leaves, feature-scale
  /// cache, and network modules; current parameter values are copied over.
  /// Registration order matches the original, so the trainer can broadcast
  /// updated values index-by-index.
  std::unique_ptr<SearchPolicy> clone_for_rollout() const override;
  std::string name() const override;

  nn::ParamRegistry& registry() noexcept { return reg_; }
  const nn::ParamRegistry& registry() const noexcept { return reg_; }
  const GiPHOptions& options() const noexcept { return options_; }

  void save(const std::string& path) const { reg_.save(path); }
  void load(const std::string& path) { reg_.load(path); }

 private:
  /// One step's encoder input and candidate set, rebuilt in place by
  /// prepare() for decide and act alike.
  struct Step {
    GpNet net;            ///< the gpNet (use_gpnet)
    GraphView task_view;  ///< the task graph (GiPH-task-EFT)
    GpNetFeatures gpnet_feats;
    TaskGraphFeatures task_feats;
    nn::Matrix merged;    ///< node features with mean out-edge features appended
    EstSweepWorkspace sweep;  ///< the gpNet's EST sweep (top-k and potential)
    std::vector<int> candidates;  ///< gpNet nodes, or tasks for GiPH-task-EFT
    const GraphView* view = nullptr;
    const nn::Matrix* node = nullptr;
    const nn::Matrix* edge = nullptr;
  };

  /// Fills step_ for the env's current state.
  void prepare(const PlacementSearchEnv& env);
  /// The action of candidate `choice`: its (task, device) on the gpNet, or
  /// for GiPH-task-EFT the task and its earliest-finish device.
  SearchAction action_of(const PlacementSearchEnv& env, int choice) const;
  const FeatureScales& scales_for(const PlacementSearchEnv& env);

  GiPHOptions options_;
  /// Per-episode cache: scales depend only on (G, N, lat), which are fixed
  /// within an episode; begin_episode() and an instance change invalidate.
  FeatureScales scales_;
  const void* scales_graph_ = nullptr;
  const void* scales_net_ = nullptr;
  nn::ParamRegistry reg_;
  std::unique_ptr<GraphEncoder> encoder_;
  std::unique_ptr<ScorePolicy> policy_;
  std::unique_ptr<nn::MLP> critic_;  ///< optional value head (use_critic)
  Step step_;
  GraphEncoder::Workspace encode_ws_;  ///< act's encoder scratch
  nn::Matrix embeddings_;              ///< act's embeddings
  ScorePolicy::Workspace choose_ws_;   ///< act's policy-head scratch
};

/// True when this GNN kind consumes the 8-dim node features with appended
/// mean out-edge features instead of separate edge features.
bool uses_merged_edge_features(GnnKind kind);

}  // namespace giph
