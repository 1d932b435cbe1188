#include "core/giph_agent.hpp"

#include <stdexcept>

#include "heft/heft.hpp"

namespace giph {

bool uses_merged_edge_features(GnnKind kind) {
  return kind == GnnKind::kGiPHNE || kind == GnnKind::kGraphSAGE || kind == GnnKind::kNone;
}

GiPHAgent::GiPHAgent(const GiPHOptions& options) : options_(options) {
  std::mt19937_64 rng(options.seed);
  GnnConfig cfg;
  cfg.kind = options.gnn;
  cfg.embed_dim = options.embed_dim;
  cfg.k_steps = options.k_steps;
  cfg.node_dim = uses_merged_edge_features(options.gnn)
                     ? kNodeFeatureDim + kEdgeFeatureDim
                     : kNodeFeatureDim;
  cfg.edge_dim = uses_merged_edge_features(options.gnn) ? 0 : kEdgeFeatureDim;
  encoder_ = std::make_unique<GraphEncoder>(reg_, cfg, rng);
  policy_ = std::make_unique<ScorePolicy>(reg_, "policy", encoder_->out_dim(), rng);
  if (options.use_critic) {
    critic_ = std::make_unique<nn::MLP>(
        reg_, "critic", std::vector<int>{encoder_->out_dim(), 16, 1}, rng,
        nn::Activation::kRelu, nn::Activation::kNone);
  }
}

std::unique_ptr<SearchPolicy> GiPHAgent::clone_for_rollout() const {
  auto clone = std::make_unique<GiPHAgent>(options_);
  nn::copy_values(reg_.params(), clone->reg_.params());
  return clone;
}

std::string GiPHAgent::name() const {
  if (!options_.use_gpnet) return "GiPH-task-eft";
  switch (options_.gnn) {
    case GnnKind::kGiPH:
      return options_.include_potential ? "GiPH" : "GiPH(no-potential)";
    case GnnKind::kGiPHK: return "GiPH-" + std::to_string(options_.k_steps);
    case GnnKind::kGiPHNE: return "GiPH-NE";
    case GnnKind::kGraphSAGE: return "GraphSAGE-NE";
    case GnnKind::kNone: return "GiPH-NE-Pol";
  }
  return "GiPH";
}

ActionDecision GiPHAgent::decide(PlacementSearchEnv& env, std::mt19937_64& rng,
                                 bool greedy) {
  return options_.use_gpnet ? decide_gpnet(env, rng, greedy)
                            : decide_task_eft(env, rng, greedy);
}

const FeatureScales& GiPHAgent::scales_for(const PlacementSearchEnv& env) {
  // Also invalidate on an instance change (rebase swaps the network without a
  // begin_episode), so the cache can never serve stale scales.
  if (scales_graph_ != &env.graph() || scales_net_ != &env.network()) {
    scales_ = compute_feature_scales(env.graph(), env.network(), env.latency());
    scales_graph_ = &env.graph();
    scales_net_ = &env.network();
  }
  return scales_;
}

ActionDecision GiPHAgent::decide_gpnet(PlacementSearchEnv& env, std::mt19937_64& rng,
                                       bool greedy) {
  // Sparse mode runs the EST sweep once and shares it between candidate
  // selection and the potential feature; dense mode leaves feature
  // construction to sweep for itself.
  thread_local EstSweepWorkspace sweep;
  const EstSweepWorkspace* shared = nullptr;
  GpNet net;
  if (options_.gpnet_topk > 0) {
    est_sweep(env.schedule(), env.graph(), env.network(), env.placement(),
              env.latency(), sweep);
    net = build_gpnet_topk(env.graph(), env.network(), env.placement(), env.feasible(),
                           options_.gpnet_topk, sweep.est);
    shared = &sweep;
  } else {
    net = build_gpnet(env.graph(), env.network(), env.placement(), env.feasible());
  }
  const GpNetFeatures feats =
      build_gpnet_features(net, env.graph(), env.network(), env.placement(),
                           env.latency(), env.schedule(), scales_for(env),
                           options_.include_potential, nullptr, shared);

  std::vector<int> candidates;
  candidates.reserve(net.num_nodes());
  auto collect = [&](bool mask_noop, bool mask_repeat) {
    candidates.clear();
    for (int u = 0; u < net.num_nodes(); ++u) {
      if (mask_noop && net.is_pivot[u]) continue;
      if (mask_repeat && net.node_task[u] == env.last_moved_task()) continue;
      candidates.push_back(u);
    }
  };
  collect(options_.mask_noop, options_.mask_repeat);
  if (candidates.empty()) collect(options_.mask_noop, false);
  if (candidates.empty()) collect(false, false);

  nn::Var embeddings;
  if (uses_merged_edge_features(options_.gnn)) {
    embeddings = encoder_->encode(net.view, append_mean_out_edge_features(net, feats),
                                  nn::Matrix());
  } else {
    embeddings = encoder_->encode(net.view, feats.node, feats.edge);
  }
  const ScorePolicy::Sample s = policy_->act(embeddings, candidates, rng, greedy);
  ActionDecision d;
  d.action = SearchAction{net.node_task[s.choice], net.node_device[s.choice]};
  d.log_prob = s.log_prob;
  if (critic_) d.value = (*critic_)(nn::mean_rows(embeddings));
  return d;
}

ActionDecision GiPHAgent::decide_task_eft(PlacementSearchEnv& env, std::mt19937_64& rng,
                                          bool greedy) {
  const TaskGraph& g = env.graph();
  const GraphView view = graph_view_of(g);
  const TaskGraphFeatures feats = build_task_graph_features(
      g, env.network(), env.placement(), env.latency(), env.schedule(),
      env.feasible(), scales_for(env));

  std::vector<int> candidates;
  for (int v = 0; v < g.num_tasks(); ++v) {
    if (options_.mask_repeat && v == env.last_moved_task()) continue;
    candidates.push_back(v);
  }
  if (candidates.empty()) {
    for (int v = 0; v < g.num_tasks(); ++v) candidates.push_back(v);
  }

  nn::Var embeddings;
  if (uses_merged_edge_features(options_.gnn)) {
    // Merge edge features into node features exactly as for gpNets.
    nn::Matrix merged(g.num_tasks(), kNodeFeatureDim + kEdgeFeatureDim);
    for (int v = 0; v < g.num_tasks(); ++v) {
      for (int j = 0; j < kNodeFeatureDim; ++j) merged(v, j) = feats.node(v, j);
      const auto oes = g.out_edges(v);
      for (int e : oes) {
        for (int j = 0; j < kEdgeFeatureDim; ++j) {
          merged(v, kNodeFeatureDim + j) += feats.edge(e, j);
        }
      }
      if (!oes.empty()) {
        for (int j = 0; j < kEdgeFeatureDim; ++j) {
          merged(v, kNodeFeatureDim + j) /= static_cast<double>(oes.size());
        }
      }
    }
    embeddings = encoder_->encode(view, merged, nn::Matrix());
  } else {
    embeddings = encoder_->encode(view, feats.node, feats.edge);
  }
  const ScorePolicy::Sample s = policy_->act(embeddings, candidates, rng, greedy);
  const int task = s.choice;
  const int device = eft_select_device(g, env.network(), env.placement(), env.latency(),
                                       env.schedule(), env.schedule_index(), task);
  if (device < 0) throw std::logic_error("GiPHAgent: no feasible EFT device");
  ActionDecision d;
  d.action = SearchAction{task, device};
  d.log_prob = s.log_prob;
  if (critic_) d.value = (*critic_)(nn::mean_rows(embeddings));
  return d;
}

}  // namespace giph
