#include "core/gnn.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace giph {

using nn::Var;
using nn::concat_cols;
using nn::concat_rows;
using nn::relu;

GraphEncoder::GraphEncoder(nn::ParamRegistry& reg, const GnnConfig& cfg,
                           std::mt19937_64& rng)
    : cfg_(cfg) {
  const int nd = cfg.node_dim;
  const int ed = cfg.edge_dim;
  const int eo = cfg.embed_dim;
  switch (cfg.kind) {
    case GnnKind::kGiPH:
    case GnnKind::kGiPHK: {
      // Node transform dim_n -> dim_n -> dim_o; message (dim_o + dim_e) ->
      // (dim_o + dim_e); aggregation (dim_o + dim_e) -> dim_o (Table 5).
      pre_embed_ = nn::MLP(reg, "gnn.pre", {nd, nd, eo}, rng, nn::Activation::kRelu,
                           nn::Activation::kNone);
      fwd_.message = nn::Linear(reg, "gnn.fwd.msg", eo + ed, eo + ed, rng);
      fwd_.aggregate = nn::Linear(reg, "gnn.fwd.agg", eo + ed, eo, rng);
      bwd_.message = nn::Linear(reg, "gnn.bwd.msg", eo + ed, eo + ed, rng);
      bwd_.aggregate = nn::Linear(reg, "gnn.bwd.agg", eo + ed, eo, rng);
      out_dim_ = 2 * eo;
      break;
    }
    case GnnKind::kGiPHNE: {
      cfg_.edge_dim = 0;  // edge features are folded into the node features
      pre_embed_ = nn::MLP(reg, "gnn.pre", {nd, nd, eo}, rng, nn::Activation::kRelu,
                           nn::Activation::kNone);
      fwd_.message = nn::Linear(reg, "gnn.fwd.msg", eo, eo, rng);
      fwd_.aggregate = nn::Linear(reg, "gnn.fwd.agg", eo, eo, rng);
      bwd_.message = nn::Linear(reg, "gnn.bwd.msg", eo, eo, rng);
      bwd_.aggregate = nn::Linear(reg, "gnn.bwd.agg", eo, eo, rng);
      out_dim_ = 2 * eo;
      break;
    }
    case GnnKind::kGraphSAGE: {
      // Node transform dim_n -> 16, then k layers [h_u || mean h_par] -> 16,
      // last layer -> dim_o (Table 5 uses dim_o = 10 with k = 3).
      constexpr int kHidden = 16;
      sage_transform_ = nn::Linear(reg, "gnn.sage.t", nd, kHidden, rng);
      for (int l = 0; l < cfg.k_steps; ++l) {
        const int out = l + 1 == cfg.k_steps ? 2 * eo : kHidden;
        sage_layers_.emplace_back(reg, "gnn.sage.l" + std::to_string(l), 2 * kHidden,
                                  out, rng);
      }
      out_dim_ = 2 * eo;
      break;
    }
    case GnnKind::kNone:
      out_dim_ = nd;
      break;
  }
}

Var GraphEncoder::pass_sequential(const GraphView& view, const Var& pre,
                                  const Var& edge_feats, const Direction& dir,
                                  bool forward) const {
  const bool use_edges = cfg_.edge_dim > 0;

  // Group nodes into dependency levels of the processing direction: every
  // message source of level L was finalized in a level < L, so one
  // matrix-matrix matmul per level replaces a matrix-vector op per node.
  // matmul, Linear, relu and the segment mean are all row-independent, which
  // keeps each node's row bitwise identical to the per-node pass.
  std::vector<int> level(view.num_nodes, 0);
  std::vector<std::vector<int>> buckets;
  auto assign_level = [&](int u) {
    const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
    int lv = 0;
    for (int e : incoming) {
      const int v = forward ? view.edges[e].first : view.edges[e].second;
      lv = std::max(lv, level[v] + 1);
    }
    level[u] = lv;
    if (lv >= static_cast<int>(buckets.size())) buckets.resize(lv + 1);
    buckets[lv].push_back(u);
  };
  if (forward) {
    for (int u : view.topo) assign_level(u);
  } else {
    for (auto it = view.topo.rbegin(); it != view.topo.rend(); ++it) assign_level(*it);
  }

  // One num_nodes x dim_o embedding matrix, advanced once per level. It
  // starts as an identity gather of pre, not as pre itself: each node's
  // gradient then sums along the level chain in a row of its own and reaches
  // pre in one add, which fixes the gradients' summation order (DESIGN.md,
  // "Training tape").
  std::vector<int> rows(view.num_nodes);
  std::iota(rows.begin(), rows.end(), 0);
  Var emb = gather_rows(pre, rows);
  for (const std::vector<int>& bucket : buckets) {
    std::vector<int> inc_nodes;   // bucket members that receive messages
    std::vector<int> srcs;        // their message sources, grouped per node
    std::vector<int> eidx;        // matching edge ids
    std::vector<int> offsets{0};  // group boundaries into srcs
    for (int u : bucket) {
      const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
      if (incoming.empty()) continue;
      for (int e : incoming) {
        srcs.push_back(forward ? view.edges[e].first : view.edges[e].second);
        eidx.push_back(e);
      }
      inc_nodes.push_back(u);
      offsets.push_back(static_cast<int>(srcs.size()));
    }
    if (inc_nodes.empty()) continue;
    Var stacked = gather_rows(emb, std::move(srcs));
    if (use_edges) {
      stacked = concat_cols({stacked, gather_rows(edge_feats, std::move(eidx))});
    }
    const Var aggregated =
        segment_mean_rows(relu(dir.message(stacked)), std::move(offsets));
    const Var nxt = add(relu(dir.aggregate(aggregated)), gather_rows(pre, inc_nodes));
    // Row u of concat_rows({nxt, emb}) to keep: u's slot in nxt when this
    // level updates it, its current row otherwise.
    const int updated = static_cast<int>(inc_nodes.size());
    for (int u = 0; u < view.num_nodes; ++u) rows[u] = updated + u;
    for (int i = 0; i < updated; ++i) rows[inc_nodes[i]] = i;
    emb = gather_rows(concat_rows({nxt, emb}), rows);
  }
  return emb;
}

Var GraphEncoder::pass_k_steps(const GraphView& view, const Var& pre,
                               const Var& edge_feats, const Direction& dir,
                               bool forward) const {
  const bool use_edges = cfg_.edge_dim > 0;

  // The synchronous update reads only the previous step's embeddings, so the
  // gather plan is static: for every node with incoming edges (ascending
  // node id), its message sources and edge ids in incoming-list order.
  std::vector<int> inc_nodes, srcs, eidx;
  std::vector<int> offsets{0};
  for (int u = 0; u < view.num_nodes; ++u) {
    const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
    if (incoming.empty()) continue;
    for (int e : incoming) {
      srcs.push_back(forward ? view.edges[e].first : view.edges[e].second);
      eidx.push_back(e);
    }
    inc_nodes.push_back(u);
    offsets.push_back(static_cast<int>(srcs.size()));
  }
  // No messages anywhere: every node keeps its self row at every step.
  if (inc_nodes.empty() || cfg_.k_steps <= 0) return pre;

  // scatter[u]: row of concat_rows({nxt, pre}) holding u's updated
  // embedding — its slot in nxt when it receives messages, its pre row (the
  // per-step "self" of message-less nodes) otherwise.
  std::vector<int> scatter(view.num_nodes);
  {
    std::vector<int> pos(view.num_nodes, -1);
    for (int i = 0; i < static_cast<int>(inc_nodes.size()); ++i) pos[inc_nodes[i]] = i;
    for (int u = 0; u < view.num_nodes; ++u) {
      scatter[u] = pos[u] >= 0 ? pos[u] : static_cast<int>(inc_nodes.size()) + u;
    }
  }

  Var emb = pre;
  for (int step = 0; step < cfg_.k_steps; ++step) {
    Var stacked = gather_rows(emb, srcs);
    if (use_edges) stacked = concat_cols({stacked, gather_rows(edge_feats, eidx)});
    const Var aggregated = segment_mean_rows(relu(dir.message(stacked)), offsets);
    const Var nxt = add(relu(dir.aggregate(aggregated)), gather_rows(pre, inc_nodes));
    emb = gather_rows(concat_rows({nxt, pre}), scatter);
  }
  return emb;
}

Var GraphEncoder::encode(const GraphView& view, const nn::Matrix& node_features,
                         const nn::Matrix& edge_features) const {
  if (node_features.rows() != view.num_nodes || node_features.cols() != cfg_.node_dim) {
    throw std::invalid_argument("GraphEncoder::encode: node feature shape mismatch");
  }
  const Var nodes = nn::constant(node_features);
  if (cfg_.kind == GnnKind::kNone) return nodes;

  const Var edges = nn::constant(edge_features);

  if (cfg_.kind == GnnKind::kGraphSAGE) {
    // One gather plan over all nodes: an empty group mean-pools to a zero
    // row, matching the old explicit zeros for parentless nodes, and a lone
    // parent copies through unscaled (identity_single) as before.
    std::vector<int> srcs;
    std::vector<int> offsets{0};
    for (int u = 0; u < view.num_nodes; ++u) {
      for (int e : view.in_edges[u]) srcs.push_back(view.edges[e].first);
      offsets.push_back(static_cast<int>(srcs.size()));
    }
    Var h = relu(sage_transform_(nodes));
    for (const nn::Linear& layer : sage_layers_) {
      const Var neigh = segment_mean_rows(gather_rows(h, srcs), offsets,
                                          /*identity_single=*/true);
      h = relu(layer(concat_cols({h, neigh})));
    }
    return h;
  }

  const Var pre = pre_embed_(nodes);
  if (cfg_.kind == GnnKind::kGiPHK) {
    return concat_cols({pass_k_steps(view, pre, edges, fwd_, true),
                        pass_k_steps(view, pre, edges, bwd_, false)});
  }
  return concat_cols({pass_sequential(view, pre, edges, fwd_, true),
                      pass_sequential(view, pre, edges, bwd_, false)});
}

void GraphEncoder::encode_into(const GraphView& view, const nn::Matrix& node_features,
                               const nn::Matrix& edge_features, Workspace& ws,
                               nn::Matrix& out) const {
  if (node_features.rows() != view.num_nodes || node_features.cols() != cfg_.node_dim) {
    throw std::invalid_argument("GraphEncoder::encode_into: node feature shape mismatch");
  }
  if (cfg_.kind == GnnKind::kNone) {
    out = node_features;
    return;
  }
  if (cfg_.kind == GnnKind::kGraphSAGE) {
    graphsage_into(view, node_features, ws, out);
    return;
  }
  if (cfg_.edge_dim > 0 && (edge_features.rows() != static_cast<int>(view.edges.size()) ||
                            edge_features.cols() != cfg_.edge_dim)) {
    throw std::invalid_argument("GraphEncoder::encode_into: edge feature shape mismatch");
  }
  const int eo = cfg_.embed_dim;
  ws.pre.assign(view.num_nodes, eo);
  for (int u = 0; u < view.num_nodes; ++u) {
    pre_embed_.forward_row(
        node_features.data() + static_cast<std::size_t>(u) * cfg_.node_dim,
        ws.pre.data() + static_cast<std::size_t>(u) * eo, ws.mlp);
  }
  const int mo = fwd_.message.out_dim();
  if (ws.row.size() < static_cast<std::size_t>(2 * mo + eo)) ws.row.resize(2 * mo + eo);
  out.assign(view.num_nodes, out_dim_);
  if (cfg_.kind == GnnKind::kGiPHK) {
    k_steps_into(view, edge_features, fwd_, true, ws, out, 0);
    k_steps_into(view, edge_features, bwd_, false, ws, out, eo);
  } else {
    sequential_into(view, edge_features, fwd_, true, ws, out, 0);
    sequential_into(view, edge_features, bwd_, false, ws, out, eo);
  }
}

void GraphEncoder::update_node(const GraphView& view, int u, const nn::Matrix& edge_feats,
                               const Direction& dir, bool forward, Workspace& ws,
                               double* dst) const {
  const int eo = cfg_.embed_dim;
  const int ed = cfg_.edge_dim;
  const nn::Matrix& w = dir.message.weight()->value;
  const nn::Matrix& b = dir.message.bias()->value;
  const int mo = w.cols();
  double* msg = ws.row.data();
  double* agg = msg + mo;
  double* h = agg + mo;
  const double* self = ws.pre.data() + static_cast<std::size_t>(u) * eo;
  const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
  if (incoming.empty()) {
    std::copy(self, self + eo, dst);
    return;
  }
  // The message row [h_src || f_e] sums its h_src terms first, so the
  // source's prefix row is exactly matmul's partial sum after k = dim_o;
  // the edge terms continue it in matmul's order. Then relu, and the
  // segment mean's zero-initialized ascending sum and one scale.
  std::fill(agg, agg + mo, 0.0);
  for (int e : incoming) {
    const int v = forward ? view.edges[e].first : view.edges[e].second;
    const double* p = ws.prefix.data() + static_cast<std::size_t>(v) * mo;
    std::copy(p, p + mo, msg);
    if (ed > 0) {
      nn::accumulate_row(edge_feats.data() + static_cast<std::size_t>(e) * ed, ed, w, eo,
                         msg);
    }
    for (int j = 0; j < mo; ++j) agg[j] += std::max(0.0, msg[j] + b(0, j));
  }
  const double inv = 1.0 / std::max(1, static_cast<int>(incoming.size()));
  for (int j = 0; j < mo; ++j) agg[j] *= inv;
  dir.aggregate.forward_row(agg, h);
  for (int j = 0; j < eo; ++j) dst[j] = std::max(0.0, h[j]) + self[j];
}

void GraphEncoder::sequential_into(const GraphView& view, const nn::Matrix& edge_feats,
                                   const Direction& dir, bool forward, Workspace& ws,
                                   nn::Matrix& out, int col) const {
  const int eo = cfg_.embed_dim;
  const nn::Matrix& w = dir.message.weight()->value;
  const int mo = w.cols();
  ws.prefix.assign(view.num_nodes, mo);
  // One node at a time in processing order: every message source is final
  // before its receivers are visited, and rows are independent, so this
  // computes the level-batched pass's rows without level buckets.
  auto visit = [&](int u) {
    double* emb = out.data() + static_cast<std::size_t>(u) * out.cols() + col;
    update_node(view, u, edge_feats, dir, forward, ws, emb);
    if (!(forward ? view.out_edges[u] : view.in_edges[u]).empty()) {
      nn::accumulate_row(emb, eo, w, 0,
                         ws.prefix.data() + static_cast<std::size_t>(u) * mo);
    }
  };
  if (forward) {
    for (int u : view.topo) visit(u);
  } else {
    for (auto it = view.topo.rbegin(); it != view.topo.rend(); ++it) visit(*it);
  }
}

void GraphEncoder::k_steps_into(const GraphView& view, const nn::Matrix& edge_feats,
                                const Direction& dir, bool forward, Workspace& ws,
                                nn::Matrix& out, int col) const {
  const int eo = cfg_.embed_dim;
  const nn::Matrix& w = dir.message.weight()->value;
  const int mo = w.cols();
  ws.cur = ws.pre;
  for (int step = 0; step < cfg_.k_steps; ++step) {
    // Synchronous update: every message reads the previous step's rows.
    ws.prefix.assign(view.num_nodes, mo);
    for (int u = 0; u < view.num_nodes; ++u) {
      if ((forward ? view.out_edges[u] : view.in_edges[u]).empty()) continue;
      nn::accumulate_row(ws.cur.data() + static_cast<std::size_t>(u) * eo, eo, w, 0,
                         ws.prefix.data() + static_cast<std::size_t>(u) * mo);
    }
    ws.next.assign(view.num_nodes, eo);
    for (int u = 0; u < view.num_nodes; ++u) {
      update_node(view, u, edge_feats, dir, forward, ws,
                  ws.next.data() + static_cast<std::size_t>(u) * eo);
    }
    std::swap(ws.cur, ws.next);
  }
  for (int u = 0; u < view.num_nodes; ++u) {
    for (int j = 0; j < eo; ++j) out(u, col + j) = ws.cur(u, j);
  }
}

void GraphEncoder::graphsage_into(const GraphView& view, const nn::Matrix& node_features,
                                  Workspace& ws, nn::Matrix& out) const {
  const int hid = sage_transform_.out_dim();
  ws.cur.assign(view.num_nodes, hid);
  for (int u = 0; u < view.num_nodes; ++u) {
    double* h = ws.cur.data() + static_cast<std::size_t>(u) * hid;
    sage_transform_.forward_row(
        node_features.data() + static_cast<std::size_t>(u) * cfg_.node_dim, h);
    for (int j = 0; j < hid; ++j) h[j] = std::max(0.0, h[j]);
  }
  if (ws.row.size() < static_cast<std::size_t>(hid)) ws.row.resize(hid);
  double* mean = ws.row.data();
  for (const nn::Linear& layer : sage_layers_) {
    const nn::Matrix& w = layer.weight()->value;
    const nn::Matrix& b = layer.bias()->value;
    const int od = layer.out_dim();
    ws.next.assign(view.num_nodes, od);
    for (int u = 0; u < view.num_nodes; ++u) {
      // segment_mean_rows with identity_single: a lone parent copies
      // through, otherwise a zero-initialized ascending sum and one scale.
      const auto& in = view.in_edges[u];
      const double* neigh = mean;
      if (in.size() == 1) {
        neigh = ws.cur.data() + static_cast<std::size_t>(view.edges[in[0]].first) * hid;
      } else {
        std::fill(mean, mean + hid, 0.0);
        for (int e : in) {
          const double* src =
              ws.cur.data() + static_cast<std::size_t>(view.edges[e].first) * hid;
          for (int j = 0; j < hid; ++j) mean[j] += src[j];
        }
        const double inv = 1.0 / std::max(1, static_cast<int>(in.size()));
        for (int j = 0; j < hid; ++j) mean[j] *= inv;
      }
      // The layer's input row is [h_u || neigh]: h_u's terms first.
      double* y = ws.next.data() + static_cast<std::size_t>(u) * od;
      nn::accumulate_row(ws.cur.data() + static_cast<std::size_t>(u) * hid, hid, w, 0, y);
      nn::accumulate_row(neigh, hid, w, hid, y);
      for (int j = 0; j < od; ++j) y[j] = std::max(0.0, y[j] + b(0, j));
    }
    std::swap(ws.cur, ws.next);
  }
  out = ws.cur;
}

ScorePolicy::ScorePolicy(nn::ParamRegistry& reg, const std::string& name, int in_dim,
                         std::mt19937_64& rng)
    : score_(reg, name, {in_dim, 16, 1}, rng, nn::Activation::kRelu,
             nn::Activation::kNone) {}

namespace {

/// Greedy arg-max, or one inverse-CDF draw, over k log-probabilities: the
/// selection both act() and choose() run, so their RNG draws match.
int select_index(const double* logp, int k, std::mt19937_64& rng, bool greedy) {
  if (greedy) {
    int idx = 0;
    for (int i = 1; i < k; ++i) {
      if (logp[i] > logp[idx]) idx = i;
    }
    return idx;
  }
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  double u = unif(rng);
  for (int i = 0; i < k; ++i) {
    u -= std::exp(logp[i]);
    if (u <= 0.0) return i;
  }
  return k - 1;  // fallback for numeric leftovers
}

}  // namespace

ScorePolicy::Sample ScorePolicy::act(const Var& embeddings,
                                     const std::vector<int>& candidates,
                                     std::mt19937_64& rng, bool greedy) const {
  if (candidates.empty()) throw std::invalid_argument("ScorePolicy::act: no candidates");
  const Var sub = gather_rows(embeddings, candidates);
  const Var scores = score_(sub);                // k x 1
  const Var logp = log_softmax_col(scores);      // k x 1
  const int idx = select_index(logp->value.data(), logp->value.rows(), rng, greedy);
  Sample s;
  s.choice = candidates[idx];
  s.log_prob = pick(logp, idx, 0);
  s.prob = std::exp(logp->value(idx, 0));
  return s;
}

ScorePolicy::Choice ScorePolicy::choose(const nn::Matrix& embeddings,
                                        const std::vector<int>& candidates,
                                        std::mt19937_64& rng, bool greedy,
                                        Workspace& ws) const {
  if (candidates.empty()) {
    throw std::invalid_argument("ScorePolicy::choose: no candidates");
  }
  const int k = static_cast<int>(candidates.size());
  ws.scores.resize(k);
  ws.log_probs.resize(k);
  for (int i = 0; i < k; ++i) {
    if (candidates[i] < 0 || candidates[i] >= embeddings.rows()) {
      throw std::invalid_argument("ScorePolicy::choose: candidate out of range");
    }
    score_.forward_row(
        embeddings.data() + static_cast<std::size_t>(candidates[i]) * embeddings.cols(),
        &ws.scores[i], ws.mlp);
  }
  nn::log_softmax(ws.scores.data(), k, ws.log_probs.data());
  const int idx = select_index(ws.log_probs.data(), k, rng, greedy);
  Choice c;
  c.choice = candidates[idx];
  c.log_prob = ws.log_probs[idx];
  return c;
}

}  // namespace giph
