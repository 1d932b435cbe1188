#include "core/giph_agent.hpp"

#include <stdexcept>

#include "heft/heft.hpp"

namespace giph {
namespace {

const nn::Matrix kNoEdgeFeatures;

}  // namespace

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
  prepare(env);
  const nn::Var embeddings = encoder_->encode(*step_.view, *step_.node, *step_.edge);
  const ScorePolicy::Sample s = policy_->act(embeddings, step_.candidates, rng, greedy);
  ActionDecision d;
  d.action = action_of(env, s.choice);
  d.log_prob = s.log_prob;
  if (critic_) d.value = (*critic_)(nn::mean_rows(embeddings));
  return d;
}

ActionDecision GiPHAgent::act(PlacementSearchEnv& env, std::mt19937_64& rng,
                              bool greedy) {
  prepare(env);
  encoder_->encode_into(*step_.view, *step_.node, *step_.edge, encode_ws_, embeddings_);
  const ScorePolicy::Choice c =
      policy_->choose(embeddings_, step_.candidates, rng, greedy, choose_ws_);
  ActionDecision d;
  d.action = action_of(env, c.choice);
  return d;
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

void GiPHAgent::prepare(const PlacementSearchEnv& env) {
  const TaskGraph& g = env.graph();
  Step& st = step_;
  std::vector<int>& candidates = st.candidates;
  if (options_.use_gpnet) {
    // Sparse mode ranks alternatives by EST and the potential feature reads
    // ESTs too: one sweep per step serves both.
    const bool sweep = options_.gpnet_topk > 0 || options_.include_potential;
    if (sweep) {
      est_sweep(env.schedule(), g, env.network(), env.placement(), env.latency(),
                st.sweep);
    }
    if (options_.gpnet_topk > 0) {
      build_gpnet_into(st.net, g, env.network(), env.placement(), env.feasible(),
                       options_.gpnet_topk, st.sweep.est);
    } else {
      build_gpnet_into(st.net, g, env.network(), env.placement(), env.feasible());
    }
    build_gpnet_features_into(st.gpnet_feats, st.net, g, env.network(), env.placement(),
                              env.latency(), env.schedule(), scales_for(env),
                              options_.include_potential, sweep ? &st.sweep : nullptr);
    const GpNet& net = st.net;
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
    st.view = &net.view;
    st.node = &st.gpnet_feats.node;
    st.edge = &st.gpnet_feats.edge;
  } else {
    graph_view_of(g, st.task_view);
    build_task_graph_features_into(st.task_feats, g, env.network(), env.placement(),
                                   env.latency(), env.schedule(), env.feasible(),
                                   scales_for(env));
    candidates.clear();
    for (int v = 0; v < g.num_tasks(); ++v) {
      if (options_.mask_repeat && v == env.last_moved_task()) continue;
      candidates.push_back(v);
    }
    if (candidates.empty()) {
      for (int v = 0; v < g.num_tasks(); ++v) candidates.push_back(v);
    }
    st.view = &st.task_view;
    st.node = &st.task_feats.node;
    st.edge = &st.task_feats.edge;
  }
  if (uses_merged_edge_features(options_.gnn)) {
    append_mean_out_edge_features(*st.view, *st.node, *st.edge, st.merged);
    st.node = &st.merged;
    st.edge = &kNoEdgeFeatures;
  }
}

SearchAction GiPHAgent::action_of(const PlacementSearchEnv& env, int choice) const {
  if (options_.use_gpnet) {
    return SearchAction{step_.net.node_task[choice], step_.net.node_device[choice]};
  }
  const int device =
      eft_select_device(env.graph(), env.network(), env.placement(), env.latency(),
                        env.schedule(), env.schedule_index(), choice);
  if (device < 0) throw std::logic_error("GiPHAgent: no feasible EFT device");
  return SearchAction{choice, device};
}

}  // namespace giph
