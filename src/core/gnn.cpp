#include "core/gnn.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace giph {

using nn::Var;
using nn::concat_cols;
using nn::concat_rows;
using nn::relu;

namespace {

/// Rejects edge features that are not one row of `edge_dim` values per edge
/// of `view`, for kinds whose messages carry them.
void check_edge_features(const GraphView& view, const nn::Matrix& edge_features,
                         int edge_dim, const char* who) {
  if (edge_dim > 0 && (edge_features.rows() != static_cast<int>(view.edges.size()) ||
                       edge_features.cols() != edge_dim)) {
    throw std::invalid_argument(std::string(who) + ": edge feature shape mismatch");
  }
}

}  // namespace

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

/// The taped sequential pass's record, laid out in the order its backward
/// walks it: the updated nodes (those a message reaches) level by level, a
/// node's level being one more than its deepest message source's and each
/// level's nodes in processing order, and each node's messages in
/// incoming-list order. The constructor lays out the plan; the forward
/// (update_node) fills the three matrices.
struct GraphEncoder::PassRecord {
  std::vector<int> level_off{0};  ///< level L >= 1 owns slots [level_off[L-1], level_off[L])
  std::vector<int> node;          ///< per slot: the updated node
  std::vector<int> msg_off{0};    ///< slot k owns messages [msg_off[k], msg_off[k+1])
  std::vector<int> src, edge;     ///< per message: its source node and edge id
  std::vector<int> slot;          ///< per node: its slot (-1: none)
  nn::Matrix pre_msg;             ///< per message: the pre-relu row msg + b
  nn::Matrix mean;                ///< per slot: the mean A of its relu'd messages
  nn::Matrix pre_agg;             ///< per slot: the pre-relu aggregate A Wa + ba

  PassRecord(const GraphView& view, bool forward, int mo, int eo);
  /// Inputs of `n`: pre, the message layer's W and b, the aggregate layer's
  /// W and b, then the edge features when messages carry them.
  void backward(const nn::Node& n) const;
};

GraphEncoder::PassRecord::PassRecord(const GraphView& view, bool forward, int mo, int eo) {
  const int nv = view.num_nodes;
  auto incoming = [&](int u) -> const std::vector<int>& {
    return forward ? view.in_edges[u] : view.out_edges[u];
  };
  auto source = [&](int e) { return forward ? view.edges[e].first : view.edges[e].second; };
  auto in_processing_order = [&](auto&& visit) {
    if (forward) {
      for (int u : view.topo) visit(u);
    } else {
      for (auto it = view.topo.rbegin(); it != view.topo.rend(); ++it) visit(*it);
    }
  };
  // `slot` holds the levels until the slots are dealt.
  slot.assign(nv, 0);
  in_processing_order([&](int u) {
    int lv = 0;
    for (int e : incoming(u)) lv = std::max(lv, slot[source(e)] + 1);
    slot[u] = lv;
    if (lv >= static_cast<int>(level_off.size())) level_off.resize(lv + 1, 0);
    if (lv > 0) ++level_off[lv];
  });
  std::partial_sum(level_off.begin(), level_off.end(), level_off.begin());
  std::vector<int> next(level_off.begin(), level_off.end() - 1);
  node.resize(level_off.back());
  in_processing_order([&](int u) {
    const int lv = slot[u];
    slot[u] = lv > 0 ? next[lv - 1]++ : -1;
    if (lv > 0) node[slot[u]] = u;
  });
  msg_off.resize(node.size() + 1);
  src.reserve(view.edges.size());
  edge.reserve(view.edges.size());
  for (std::size_t k = 0; k < node.size(); ++k) {
    for (int e : incoming(node[k])) {
      src.push_back(source(e));
      edge.push_back(e);
    }
    msg_off[k + 1] = static_cast<int>(src.size());
  }
  pre_msg.assign(static_cast<int>(src.size()), mo);
  mean.assign(static_cast<int>(node.size()), mo);
  pre_agg.assign(static_cast<int>(node.size()), eo);
}

// The backward of the per-level chain of generic ops that computes this
// pass's values (the per-node-slice reference in tests/gnn_test.cpp has the
// same gradients), with `emb` the running num_nodes x dim_o matrix, first an
// identity gather of pre:
//   stacked = concat_cols({gather_rows(emb, src), edge rows})
//   mean    = segment_mean_rows(relu(stacked Wm + bm))
//   nxt     = relu(mean Wa + ba) + gather_rows(pre, level nodes)
//   emb     = gather_rows(concat_rows({nxt, emb}), scatter)
// It makes the same floating-point additions into every gradient in the
// same order, so the bytes match (DESIGN.md, "Training tape").
void GraphEncoder::PassRecord::backward(const nn::Node& n) const {
  const nn::Var& pre = n.inputs[0];
  const nn::Var& wm = n.inputs[1];
  const nn::Var& bm = n.inputs[2];
  const nn::Var& wa = n.inputs[3];
  const nn::Var& ba = n.inputs[4];
  const double* edge_feats = n.inputs.size() > 5 ? n.inputs[5]->value.data() : nullptr;
  const int nv = n.value.rows();
  const int eo = n.value.cols();
  const int in = wm->value.rows();  // eo + the edge feature width
  const int mo = wm->value.cols();
  const int levels = static_cast<int>(level_off.size()) - 1;
  int max_slots = 0, max_msgs = 0;
  for (int L = 0; L < levels; ++L) {
    max_slots = std::max(max_slots, level_off[L + 1] - level_off[L]);
    max_msgs = std::max(max_msgs, msg_off[level_off[L + 1]] - msg_off[level_off[L]]);
  }
  // One scratch buffer: the running gradient of the embedding matrix, then
  // per level the gradients of its slot rows (aggregate output, mean), of
  // its message rows (message output, stacked input) with the stacked input
  // itself, and one weight gradient.
  std::vector<double> buf(static_cast<std::size_t>(nv) * eo +
                          static_cast<std::size_t>(max_slots) * (eo + mo) +
                          static_cast<std::size_t>(max_msgs) * (mo + 2 * in) +
                          static_cast<std::size_t>(std::max(in * mo, mo * eo)));
  double* g = buf.data();
  double* gh = g + static_cast<std::size_t>(nv) * eo;
  double* ga = gh + static_cast<std::size_t>(max_slots) * eo;
  double* gm = ga + static_cast<std::size_t>(max_slots) * mo;
  double* x = gm + static_cast<std::size_t>(max_msgs) * mo;
  double* gx = x + static_cast<std::size_t>(max_msgs) * in;
  double* tw = gx + static_cast<std::size_t>(max_msgs) * in;
  std::copy(n.grad.data(), n.grad.data() + n.grad.size(), g);
  auto add_into = [](nn::Matrix& acc, const double* v) {
    for (std::size_t i = 0; i < acc.size(); ++i) acc.data()[i] += v[i];
  };

  // Each level repeats the per-level op chain's backward in its order. Every
  // gradient buffer those ops filled started at +0.0 and was added to, so
  // it never held -0.0: copying a row of one stands for adding it to a
  // fresh buffer. The weights and biases get each level's own terms.
  for (int L = levels - 1; L >= 0; --L) {
    const int k0 = level_off[L], k1 = level_off[L + 1], nk = k1 - k0;
    const int m0 = msg_off[k0], nm = msg_off[k1] - m0;
    // The output gather and concat_rows hand the level's rows of the
    // running gradient to nxt and leave +0.0 behind; add() passes them on
    // to the relu and to the residual gather of pre.
    for (int k = k0; k < k1; ++k) {
      double* gu = g + static_cast<std::size_t>(node[k]) * eo;
      std::copy(gu, gu + eo, gh + static_cast<std::size_t>(k - k0) * eo);
      std::fill(gu, gu + eo, 0.0);
    }
    if (pre->requires_grad) {
      nn::Matrix& gp = pre->ensure_grad();
      for (int k = k0; k < k1; ++k) {
        const double* ghk = gh + static_cast<std::size_t>(k - k0) * eo;
        for (int j = 0; j < eo; ++j) gp(node[k], j) += ghk[j];
      }
    }
    // relu, then the aggregate layer's add_rowvec and matmul.
    const double* h1 = pre_agg.data() + static_cast<std::size_t>(k0) * eo;
    for (int i = 0; i < nk * eo; ++i) gh[i] = h1[i] > 0.0 ? gh[i] : 0.0;
    nn::Matrix& gba = ba->ensure_grad();
    for (int i = 0; i < nk; ++i) {
      for (int j = 0; j < eo; ++j) gba(0, j) += gh[static_cast<std::size_t>(i) * eo + j];
    }
    nn::matmul_nt(gh, wa->value.data(), nk, eo, mo, ga);
    nn::matmul_tn(mean.data() + static_cast<std::size_t>(k0) * mo, gh, nk, mo, eo, tw);
    add_into(wa->ensure_grad(), tw);
    // The segment mean, relu, and the message layer's add_rowvec.
    for (int k = k0; k < k1; ++k) {
      const double inv = 1.0 / std::max(1, msg_off[k + 1] - msg_off[k]);
      const double* gak = ga + static_cast<std::size_t>(k - k0) * mo;
      for (int m = msg_off[k]; m < msg_off[k + 1]; ++m) {
        const double* pm = pre_msg.data() + static_cast<std::size_t>(m) * mo;
        double* gmm = gm + static_cast<std::size_t>(m - m0) * mo;
        for (int j = 0; j < mo; ++j) gmm[j] = pm[j] > 0.0 ? 0.0 + gak[j] * inv : 0.0;
      }
    }
    nn::Matrix& gbm = bm->ensure_grad();
    for (int i = 0; i < nm; ++i) {
      for (int j = 0; j < mo; ++j) gbm(0, j) += gm[static_cast<std::size_t>(i) * mo + j];
    }
    // The message layer's matmul over the stacked input [emb[src] || edge].
    // A source's row is final by the time a level reads it, so the node's
    // own output rows rebuild that input.
    for (int i = 0; i < nm; ++i) {
      double* xi = x + static_cast<std::size_t>(i) * in;
      const double* emb = n.value.data() + static_cast<std::size_t>(src[m0 + i]) * eo;
      std::copy(emb, emb + eo, xi);
      if (in > eo) {
        const double* f = edge_feats + static_cast<std::size_t>(edge[m0 + i]) * (in - eo);
        std::copy(f, f + (in - eo), xi + eo);
      }
    }
    nn::matmul_nt(gm, wm->value.data(), nm, mo, in, gx);
    nn::matmul_tn(x, gm, nm, in, mo, tw);
    add_into(wm->ensure_grad(), tw);
    // concat_cols keeps the source columns; the source gather adds them.
    for (int i = 0; i < nm; ++i) {
      double* gs = g + static_cast<std::size_t>(src[m0 + i]) * eo;
      const double* gxi = gx + static_cast<std::size_t>(i) * in;
      for (int j = 0; j < eo; ++j) gs[j] += gxi[j];
    }
  }
  // The identity head: every row, +0.0 for the updated ones, into pre.
  if (pre->requires_grad) {
    nn::Matrix& gp = pre->ensure_grad();
    for (int u = 0; u < nv; ++u) {
      for (int j = 0; j < eo; ++j) gp(u, j) += g[static_cast<std::size_t>(u) * eo + j];
    }
  }
}

Var GraphEncoder::pass_sequential(const GraphView& view, const Var& pre,
                                  const Var& edge_feats, const Direction& dir,
                                  bool forward, Workspace& ws) const {
  PassRecord rec(view, forward, dir.message.out_dim(), cfg_.embed_dim);
  nn::Matrix out(view.num_nodes, cfg_.embed_dim);
  sequential_into(view, edge_feats->value, dir, forward, ws, out, 0, &rec);
  std::vector<Var> inputs{pre, dir.message.weight(), dir.message.bias(),
                          dir.aggregate.weight(), dir.aggregate.bias()};
  if (cfg_.edge_dim > 0) inputs.push_back(edge_feats);
  return nn::custom_op(std::move(out), std::move(inputs),
                       [rec = std::move(rec)](const nn::Node& n) { rec.backward(n); });
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

  check_edge_features(view, edge_features, cfg_.edge_dim, "GraphEncoder::encode");
  const Var pre = pre_embed_(nodes);
  if (cfg_.kind == GnnKind::kGiPHK) {
    return concat_cols({pass_k_steps(view, pre, edges, fwd_, true),
                        pass_k_steps(view, pre, edges, bwd_, false)});
  }
  // The list's elements run in order, so the backward direction's node gets
  // the higher id and its backward runs first.
  Workspace ws;
  ws.pre = pre->value;
  return concat_cols({pass_sequential(view, pre, edges, fwd_, true, ws),
                      pass_sequential(view, pre, edges, bwd_, false, ws)});
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
  check_edge_features(view, edge_features, cfg_.edge_dim, "GraphEncoder::encode_into");
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
    sequential_into(view, edge_features, fwd_, true, ws, out, 0, nullptr);
    sequential_into(view, edge_features, bwd_, false, ws, out, eo, nullptr);
  }
}

void GraphEncoder::update_node(const GraphView& view, int u, const nn::Matrix& edge_feats,
                               const Direction& dir, bool forward, Workspace& ws,
                               double* dst, PassRecord* rec) const {
  const int eo = cfg_.embed_dim;
  const int ed = cfg_.edge_dim;
  const nn::Matrix& w = dir.message.weight()->value;
  const nn::Matrix& b = dir.message.bias()->value;
  const int mo = w.cols();
  const double* self = ws.pre.data() + static_cast<std::size_t>(u) * eo;
  const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
  if (incoming.empty()) {
    std::copy(self, self + eo, dst);
    return;
  }
  // Scratch rows, or u's rows of the record, which keeps every message row.
  double *msg, *agg, *h;
  std::size_t msg_step = 0;
  if (rec == nullptr) {
    msg = ws.row.data();
    agg = msg + mo;
    h = agg + mo;
  } else {
    const int k = rec->slot[u];
    msg = rec->pre_msg.data() + static_cast<std::size_t>(rec->msg_off[k]) * mo;
    msg_step = mo;
    agg = rec->mean.data() + static_cast<std::size_t>(k) * mo;
    h = rec->pre_agg.data() + static_cast<std::size_t>(k) * eo;
  }
  // The message row [h_src || f_e] sums its h_src terms first, so the
  // source's prefix row is exactly matmul's partial sum after k = dim_o;
  // the edge terms continue it in matmul's order. Then the bias, relu, and
  // the segment mean's zero-initialized ascending sum and one scale.
  std::fill(agg, agg + mo, 0.0);
  for (int e : incoming) {
    const int v = forward ? view.edges[e].first : view.edges[e].second;
    const double* p = ws.prefix.data() + static_cast<std::size_t>(v) * mo;
    std::copy(p, p + mo, msg);
    if (ed > 0) {
      nn::accumulate_row(edge_feats.data() + static_cast<std::size_t>(e) * ed, ed, w, eo,
                         msg);
    }
    for (int j = 0; j < mo; ++j) {
      msg[j] += b(0, j);
      agg[j] += std::max(0.0, msg[j]);
    }
    msg += msg_step;
  }
  const double inv = 1.0 / std::max(1, static_cast<int>(incoming.size()));
  for (int j = 0; j < mo; ++j) agg[j] *= inv;
  dir.aggregate.forward_row(agg, h);
  for (int j = 0; j < eo; ++j) dst[j] = std::max(0.0, h[j]) + self[j];
}

void GraphEncoder::sequential_into(const GraphView& view, const nn::Matrix& edge_feats,
                                   const Direction& dir, bool forward, Workspace& ws,
                                   nn::Matrix& out, int col, PassRecord* rec) const {
  const int eo = cfg_.embed_dim;
  const nn::Matrix& w = dir.message.weight()->value;
  const int mo = w.cols();
  ws.prefix.assign(view.num_nodes, mo);
  // One node at a time in processing order: every message source is final
  // before its receivers are visited, and rows are independent, so this
  // computes the level-batched pass's rows without level buckets.
  auto visit = [&](int u) {
    double* emb = out.data() + static_cast<std::size_t>(u) * out.cols() + col;
    update_node(view, u, edge_feats, dir, forward, ws, emb, rec);
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
                  ws.next.data() + static_cast<std::size_t>(u) * eo, nullptr);
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
