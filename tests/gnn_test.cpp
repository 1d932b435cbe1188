#include "core/gnn.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/features.hpp"
#include "core/giph_agent.hpp"
#include "gen/dataset.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace giph {
namespace {

const DefaultLatencyModel kLat;

/// `num_tasks` tasks in a chain 0 -> 1 -> ... (the deepest graph of its
/// size), or with no edges at all.
TaskGraph line_graph(int num_tasks, bool chained) {
  TaskGraph g;
  for (int v = 0; v < num_tasks; ++v) g.add_task(Task{.compute = 1.0 + 0.5 * (v % 3)});
  if (chained) {
    for (int v = 0; v + 1 < num_tasks; ++v) g.add_edge(v, v + 1, 2.0 + v);
  }
  return g;
}

struct Instance {
  TaskGraph g;
  DeviceNetwork n;
  Placement m;
  GpNet net;
  GpNetFeatures feats;
  explicit Instance(int num_tasks = 8, int num_devices = 4) {
    std::mt19937_64 rng(77);
    TaskGraphParams gp;
    gp.num_tasks = num_tasks;
    g = generate_task_graph(gp, rng);
    place(num_devices, rng);
  }
  Instance(TaskGraph graph, int num_devices) : g(std::move(graph)) {
    std::mt19937_64 rng(77);
    place(num_devices, rng);
  }

 private:
  void place(int num_devices, std::mt19937_64& rng) {
    NetworkParams np;
    np.num_devices = num_devices;
    n = generate_device_network(np, rng);
    ensure_all_kinds(n, np.num_hw_kinds, rng);
    m = random_placement(g, n, rng);
    const auto feasible = feasible_sets(g, n);
    net = build_gpnet(g, n, m, feasible);
    const Schedule sched = simulate(g, n, m, kLat);
    const FeatureScales s = compute_feature_scales(g, n, kLat);
    feats = build_gpnet_features(net, g, n, m, kLat, sched, s);
  }
};

class EncoderKinds : public ::testing::TestWithParam<GnnKind> {};

TEST_P(EncoderKinds, ShapesAndGradients) {
  Instance inst;
  const GnnKind kind = GetParam();
  GnnConfig cfg;
  cfg.kind = kind;
  const bool merged = kind == GnnKind::kGiPHNE || kind == GnnKind::kGraphSAGE ||
                      kind == GnnKind::kNone;
  cfg.node_dim = merged ? 8 : 4;
  cfg.edge_dim = merged ? 0 : 4;

  std::mt19937_64 rng(5);
  nn::ParamRegistry reg;
  const GraphEncoder enc(reg, cfg, rng);

  nn::Matrix node_feats =
      merged ? append_mean_out_edge_features(inst.net, inst.feats) : inst.feats.node;
  const nn::Var emb = enc.encode(inst.net.view, node_feats,
                                 merged ? nn::Matrix() : inst.feats.edge);
  EXPECT_EQ(emb->value.rows(), inst.net.num_nodes());
  EXPECT_EQ(emb->value.cols(), enc.out_dim());
  for (int i = 0; i < emb->value.rows(); ++i) {
    for (int j = 0; j < emb->value.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(emb->value(i, j)));
    }
  }

  if (kind == GnnKind::kNone) {
    EXPECT_TRUE(reg.params().empty());
    return;
  }
  // Gradients reach every registered parameter.
  nn::backward(nn::sum_all(emb));
  for (const nn::Var& p : reg.params()) {
    EXPECT_GT(p->grad.size(), 0u) << "parameter received no gradient";
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EncoderKinds,
                         ::testing::Values(GnnKind::kGiPH, GnnKind::kGiPHK,
                                           GnnKind::kGiPHNE, GnnKind::kGraphSAGE,
                                           GnnKind::kNone));

TEST(GraphEncoder, DeterministicForward) {
  Instance inst;
  GnnConfig cfg;
  std::mt19937_64 rng(5);
  nn::ParamRegistry reg;
  const GraphEncoder enc(reg, cfg, rng);
  const nn::Var a = enc.encode(inst.net.view, inst.feats.node, inst.feats.edge);
  const nn::Var b = enc.encode(inst.net.view, inst.feats.node, inst.feats.edge);
  EXPECT_TRUE(nn::bitwise_equal(a->value, b->value));
}

TEST(GraphEncoder, EmbeddingDependsOnGraphStructure) {
  Instance inst;
  GnnConfig cfg;
  std::mt19937_64 rng(5);
  nn::ParamRegistry reg;
  const GraphEncoder enc(reg, cfg, rng);
  const nn::Var a = enc.encode(inst.net.view, inst.feats.node, inst.feats.edge);
  // Zeroing an edge feature changes embeddings of connected nodes.
  nn::Matrix edited = inst.feats.edge;
  for (int j = 0; j < edited.cols(); ++j) edited(0, j) += 5.0;
  const nn::Var b = enc.encode(inst.net.view, inst.feats.node, edited);
  EXPECT_GT(nn::max_abs_diff(a->value, b->value), 0.0);
}

TEST(GraphEncoder, OutDimMatchesConfig) {
  std::mt19937_64 rng(5);
  {
    nn::ParamRegistry reg;
    GnnConfig cfg;
    cfg.embed_dim = 7;
    EXPECT_EQ(GraphEncoder(reg, cfg, rng).out_dim(), 14);
  }
  {
    nn::ParamRegistry reg;
    GnnConfig cfg;
    cfg.kind = GnnKind::kNone;
    cfg.node_dim = 8;
    EXPECT_EQ(GraphEncoder(reg, cfg, rng).out_dim(), 8);
  }
}

TEST(GraphEncoder, RejectsShapeMismatch) {
  Instance inst;
  GnnConfig cfg;
  std::mt19937_64 rng(5);
  nn::ParamRegistry reg;
  const GraphEncoder enc(reg, cfg, rng);
  EXPECT_THROW(enc.encode(inst.net.view, nn::Matrix(3, 4), inst.feats.edge),
               std::invalid_argument);
}

TEST(ScorePolicy, SamplesOnlyFromCandidates) {
  std::mt19937_64 rng(9);
  nn::ParamRegistry reg;
  const ScorePolicy pol(reg, "p", 6, rng);
  const nn::Var emb = nn::constant(nn::Matrix(10, 6, 0.3));
  const std::vector<int> candidates{2, 5, 7};
  std::mt19937_64 sample_rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto s = pol.act(emb, candidates, sample_rng, false);
    EXPECT_TRUE(s.choice == 2 || s.choice == 5 || s.choice == 7);
    EXPECT_GT(s.prob, 0.0);
    EXPECT_LE(s.prob, 1.0);
    EXPECT_NEAR(std::exp(s.log_prob->value(0, 0)), s.prob, 1e-12);
  }
}

TEST(ScorePolicy, GreedyPicksArgmax) {
  std::mt19937_64 rng(9);
  nn::ParamRegistry reg;
  const ScorePolicy pol(reg, "p", 2, rng);
  // Distinct rows produce distinct scores; greedy must be deterministic.
  nn::Matrix m(4, 2);
  for (int i = 0; i < 4; ++i) {
    m(i, 0) = i;
    m(i, 1) = -i;
  }
  const nn::Var emb = nn::constant(m);
  std::mt19937_64 r1(1), r2(2);
  const auto a = pol.act(emb, {0, 1, 2, 3}, r1, true);
  const auto b = pol.act(emb, {0, 1, 2, 3}, r2, true);
  EXPECT_EQ(a.choice, b.choice);
}

TEST(ScorePolicy, EmptyCandidatesThrow) {
  std::mt19937_64 rng(9);
  nn::ParamRegistry reg;
  const ScorePolicy pol(reg, "p", 2, rng);
  const nn::Var emb = nn::constant(nn::Matrix(4, 2));
  EXPECT_THROW(pol.act(emb, {}, rng, false), std::invalid_argument);
}

TEST(ScorePolicy, SamplingFrequenciesMatchProbabilities) {
  std::mt19937_64 rng(9);
  nn::ParamRegistry reg;
  const ScorePolicy pol(reg, "p", 2, rng);
  nn::Matrix m(3, 2);
  m(0, 0) = 1.0;
  m(1, 0) = -1.0;
  m(2, 1) = 2.0;
  const nn::Var emb = nn::constant(m);
  // Reference probabilities from a single act() call.
  std::mt19937_64 r0(1);
  std::vector<double> probs(3, 0.0);
  for (int c = 0; c < 3; ++c) {
    // Greedy act on a singleton candidate set exposes each log-prob = 0, so
    // instead read probabilities through repeated sampling.
    (void)c;
  }
  const int trials = 4000;
  std::vector<int> counts(3, 0);
  std::mt19937_64 sr(77);
  double p_first = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto s = pol.act(emb, {0, 1, 2}, sr, false);
    ++counts[s.choice];
    if (s.choice == 0) p_first = s.prob;
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(counts[c], 0) << "every candidate sampled eventually";
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / trials, p_first, 0.03);
}

// ---- batched vs per-node bitwise equivalence ------------------------------
// The encoder batches each level/step/layer through one matrix-matrix matmul;
// the references below re-implement the per-node matrix-vector passes that the
// batching replaced, straight from the registry parameters, and the test
// demands bitwise-equal embeddings for every GNN kind, from the tape encode
// and from the forward-only encode_into alike.

nn::Var ref_param(const nn::ParamRegistry& reg, const std::string& name) {
  const auto& names = reg.names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return reg.params()[i];
  }
  throw std::invalid_argument("ref_param: unknown " + name);
}

nn::Var ref_linear(const nn::ParamRegistry& reg, const std::string& base,
                   const nn::Var& x) {
  return nn::add_rowvec(nn::matmul(x, ref_param(reg, base + ".W")),
                        ref_param(reg, base + ".b"));
}

nn::Var ref_pre(const nn::ParamRegistry& reg, const nn::Var& nodes) {
  return ref_linear(reg, "gnn.pre.l1", nn::relu(ref_linear(reg, "gnn.pre.l0", nodes)));
}

std::vector<nn::Var> ref_sequential(const nn::ParamRegistry& reg, const GraphView& view,
                                    const nn::Var& pre, const nn::Var& edges,
                                    bool use_edges, const std::string& base,
                                    bool forward) {
  std::vector<nn::Var> emb(view.num_nodes);
  auto process = [&](int u) {
    const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
    const nn::Var self = nn::row(pre, u);
    if (incoming.empty()) {
      emb[u] = self;
      return;
    }
    std::vector<nn::Var> msgs;
    for (int e : incoming) {
      const int v = forward ? view.edges[e].first : view.edges[e].second;
      msgs.push_back(use_edges ? nn::concat_cols({emb[v], nn::row(edges, e)}) : emb[v]);
    }
    const nn::Var stacked = msgs.size() == 1 ? msgs[0] : nn::concat_rows(msgs);
    const nn::Var agg = nn::mean_rows(nn::relu(ref_linear(reg, base + ".msg", stacked)));
    emb[u] = nn::add(nn::relu(ref_linear(reg, base + ".agg", agg)), self);
  };
  if (forward) {
    for (int u : view.topo) process(u);
  } else {
    for (auto it = view.topo.rbegin(); it != view.topo.rend(); ++it) process(*it);
  }
  return emb;
}

// The tape's level pass as it was while every node had a one-row slice of
// its own: level buckets in view.topo order, each level's message sources
// stacked with concat_rows, and each updated node a row() of the level's
// output. Its gradients are the reference for the encoder's single
// embedding matrix per direction.
std::vector<nn::Var> ref_level_slices(const nn::ParamRegistry& reg, const GraphView& view,
                                      const nn::Var& pre, const nn::Var& edges,
                                      bool use_edges, const std::string& base,
                                      bool forward) {
  std::vector<nn::Var> emb(view.num_nodes);
  std::vector<int> level(view.num_nodes, 0);
  std::vector<std::vector<int>> buckets;
  auto assign_level = [&](int u) {
    const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
    int lv = 0;
    for (int e : incoming) {
      lv = std::max(lv, level[forward ? view.edges[e].first : view.edges[e].second] + 1);
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
  for (const std::vector<int>& bucket : buckets) {
    std::vector<int> inc_nodes, eidx;
    std::vector<nn::Var> src_rows;
    std::vector<int> offsets{0};
    for (int u : bucket) {
      const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
      if (incoming.empty()) {
        emb[u] = nn::row(pre, u);
        continue;
      }
      for (int e : incoming) {
        src_rows.push_back(emb[forward ? view.edges[e].first : view.edges[e].second]);
        eidx.push_back(e);
      }
      inc_nodes.push_back(u);
      offsets.push_back(static_cast<int>(src_rows.size()));
    }
    if (inc_nodes.empty()) continue;
    nn::Var stacked = nn::concat_rows(src_rows);
    if (use_edges) stacked = nn::concat_cols({stacked, nn::gather_rows(edges, eidx)});
    const nn::Var agg = nn::segment_mean_rows(
        nn::relu(ref_linear(reg, base + ".msg", stacked)), offsets);
    const nn::Var nxt = nn::add(nn::relu(ref_linear(reg, base + ".agg", agg)),
                                nn::gather_rows(pre, inc_nodes));
    for (int i = 0; i < static_cast<int>(inc_nodes.size()); ++i) {
      emb[inc_nodes[i]] = nn::row(nxt, i);
    }
  }
  return emb;
}

std::vector<nn::Var> ref_k_steps(const nn::ParamRegistry& reg, const GraphView& view,
                                 const nn::Var& pre, const nn::Var& edges,
                                 bool use_edges, const std::string& base, bool forward,
                                 int k_steps) {
  std::vector<nn::Var> emb(view.num_nodes);
  for (int u = 0; u < view.num_nodes; ++u) emb[u] = nn::row(pre, u);
  for (int step = 0; step < k_steps; ++step) {
    std::vector<nn::Var> next(view.num_nodes);
    for (int u = 0; u < view.num_nodes; ++u) {
      const auto& incoming = forward ? view.in_edges[u] : view.out_edges[u];
      const nn::Var self = nn::row(pre, u);
      if (incoming.empty()) {
        next[u] = self;
        continue;
      }
      std::vector<nn::Var> msgs;
      for (int e : incoming) {
        const int v = forward ? view.edges[e].first : view.edges[e].second;
        msgs.push_back(use_edges ? nn::concat_cols({emb[v], nn::row(edges, e)}) : emb[v]);
      }
      const nn::Var stacked = msgs.size() == 1 ? msgs[0] : nn::concat_rows(msgs);
      const nn::Var agg =
          nn::mean_rows(nn::relu(ref_linear(reg, base + ".msg", stacked)));
      next[u] = nn::add(nn::relu(ref_linear(reg, base + ".agg", agg)), self);
    }
    emb = std::move(next);
  }
  return emb;
}

nn::Var ref_sage(const nn::ParamRegistry& reg, const GraphView& view,
                 const nn::Var& nodes, int k_steps) {
  std::vector<nn::Var> emb(view.num_nodes);
  {
    const nn::Var h0 = nn::relu(ref_linear(reg, "gnn.sage.t", nodes));
    for (int u = 0; u < view.num_nodes; ++u) emb[u] = nn::row(h0, u);
  }
  for (int l = 0; l < k_steps; ++l) {
    std::vector<nn::Var> next(view.num_nodes);
    for (int u = 0; u < view.num_nodes; ++u) {
      nn::Var neigh;
      if (view.in_edges[u].empty()) {
        neigh = nn::constant(nn::Matrix::zeros(1, emb[u]->value.cols()));
      } else {
        std::vector<nn::Var> ms;
        for (int e : view.in_edges[u]) ms.push_back(emb[view.edges[e].first]);
        neigh = ms.size() == 1 ? ms[0] : nn::mean_rows(nn::concat_rows(ms));
      }
      next[u] = nn::relu(ref_linear(reg, "gnn.sage.l" + std::to_string(l),
                                    nn::concat_cols({emb[u], neigh})));
    }
    emb = std::move(next);
  }
  return nn::concat_rows(emb);
}

class EncoderBitwise : public ::testing::TestWithParam<GnnKind> {};

TEST_P(EncoderBitwise, BatchedEncodeMatchesPerNodeReference) {
  Instance inst;
  const GnnKind kind = GetParam();
  GnnConfig cfg;
  cfg.kind = kind;
  const bool merged = kind == GnnKind::kGiPHNE || kind == GnnKind::kGraphSAGE ||
                      kind == GnnKind::kNone;
  cfg.node_dim = merged ? 8 : 4;
  cfg.edge_dim = merged ? 0 : 4;

  std::mt19937_64 rng(5);
  nn::ParamRegistry reg;
  const GraphEncoder enc(reg, cfg, rng);

  const nn::Matrix node_feats =
      merged ? append_mean_out_edge_features(inst.net, inst.feats) : inst.feats.node;
  const nn::Matrix edge_feats = merged ? nn::Matrix() : inst.feats.edge;
  const nn::Var emb = enc.encode(inst.net.view, node_feats, edge_feats);

  const nn::Var nodes = nn::constant(node_feats);
  const nn::Var edges = nn::constant(edge_feats);
  const bool use_edges = !merged;
  nn::Var ref;
  if (kind == GnnKind::kNone) {
    ref = nodes;
  } else if (kind == GnnKind::kGraphSAGE) {
    ref = ref_sage(reg, inst.net.view, nodes, cfg.k_steps);
  } else {
    const nn::Var pre = ref_pre(reg, nodes);
    std::vector<nn::Var> fwd, bwd;
    if (kind == GnnKind::kGiPHK) {
      fwd = ref_k_steps(reg, inst.net.view, pre, edges, use_edges, "gnn.fwd", true,
                        cfg.k_steps);
      bwd = ref_k_steps(reg, inst.net.view, pre, edges, use_edges, "gnn.bwd", false,
                        cfg.k_steps);
    } else {
      fwd = ref_sequential(reg, inst.net.view, pre, edges, use_edges, "gnn.fwd", true);
      bwd = ref_sequential(reg, inst.net.view, pre, edges, use_edges, "gnn.bwd", false);
    }
    ref = nn::concat_cols({nn::concat_rows(fwd), nn::concat_rows(bwd)});
  }

  ASSERT_EQ(emb->value.rows(), ref->value.rows());
  ASSERT_EQ(emb->value.cols(), ref->value.cols());
  EXPECT_TRUE(nn::bitwise_equal(emb->value, ref->value))
      << "batched encode must be bitwise-identical to the per-node pass";

  // The forward-only path, twice through one workspace (the second call
  // runs on warm buffers), and once more after a different graph has
  // resized them.
  GraphEncoder::Workspace ws;
  nn::Matrix out;
  enc.encode_into(inst.net.view, node_feats, edge_feats, ws, out);
  EXPECT_TRUE(nn::bitwise_equal(out, ref->value))
      << "encode_into must be bitwise-identical to the tape encode";
  enc.encode_into(inst.net.view, node_feats, edge_feats, ws, out);
  EXPECT_TRUE(nn::bitwise_equal(out, ref->value));
  const GraphView task_view = graph_view_of(inst.g);
  const nn::Matrix task_nodes(task_view.num_nodes, cfg.node_dim, 0.25);
  const nn::Matrix task_edges(static_cast<int>(task_view.edges.size()), cfg.edge_dim,
                              -0.5);
  enc.encode_into(task_view, task_nodes, task_edges, ws, out);
  EXPECT_TRUE(
      nn::bitwise_equal(out, enc.encode(task_view, task_nodes, task_edges)->value));
  enc.encode_into(inst.net.view, node_feats, edge_feats, ws, out);
  EXPECT_TRUE(nn::bitwise_equal(out, ref->value));
}

/// Sets every third entry of `m` to +0.0 and every other fifth to -0.0: the
/// inputs every row kernel's zero skip passes over.
void sign_zeros(nn::Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i % 3 == 0) {
      m.data()[i] = 0.0;
    } else if (i % 5 == 0) {
      m.data()[i] = -0.0;
    }
  }
}

/// Nonzero biases, as after training: a fresh layer's are all +0.0, which
/// hides where a row adds them.
void randomize_biases(const nn::ParamRegistry& reg, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> d(-0.5, 0.5);
  for (const nn::Var& p : reg.params()) {
    if (p->value.rows() != 1) continue;
    for (std::size_t i = 0; i < p->value.size(); ++i) p->value.data()[i] = d(rng);
  }
}

/// EncoderBitwise at `embed` with random biases and signed-zero features:
/// the tape encode and encode_into against the per-node reference.
void expect_rows_match_reference(GnnKind kind, int embed) {
  Instance inst(12, 5);
  GnnConfig cfg;
  cfg.kind = kind;
  cfg.embed_dim = embed;
  const bool merged = kind == GnnKind::kGiPHNE || kind == GnnKind::kGraphSAGE ||
                      kind == GnnKind::kNone;
  cfg.node_dim = merged ? 8 : 4;
  cfg.edge_dim = merged ? 0 : 4;

  std::mt19937_64 rng(6);
  nn::ParamRegistry reg;
  const GraphEncoder enc(reg, cfg, rng);
  randomize_biases(reg, rng);

  nn::Matrix node_feats =
      merged ? append_mean_out_edge_features(inst.net, inst.feats) : inst.feats.node;
  nn::Matrix edge_feats = merged ? nn::Matrix() : inst.feats.edge;
  sign_zeros(node_feats);
  sign_zeros(edge_feats);
  const nn::Var nodes = nn::constant(node_feats);
  const nn::Var edges = nn::constant(edge_feats);
  nn::Var ref;
  if (kind == GnnKind::kNone) {
    ref = nodes;
  } else if (kind == GnnKind::kGraphSAGE) {
    ref = ref_sage(reg, inst.net.view, nodes, cfg.k_steps);
  } else {
    const nn::Var pre = ref_pre(reg, nodes);
    std::vector<nn::Var> fwd, bwd;
    if (kind == GnnKind::kGiPHK) {
      fwd = ref_k_steps(reg, inst.net.view, pre, edges, !merged, "gnn.fwd", true,
                        cfg.k_steps);
      bwd = ref_k_steps(reg, inst.net.view, pre, edges, !merged, "gnn.bwd", false,
                        cfg.k_steps);
    } else {
      fwd = ref_sequential(reg, inst.net.view, pre, edges, !merged, "gnn.fwd", true);
      bwd = ref_sequential(reg, inst.net.view, pre, edges, !merged, "gnn.bwd", false);
    }
    ref = nn::concat_cols({nn::concat_rows(fwd), nn::concat_rows(bwd)});
  }
  ASSERT_EQ(ref->value.cols(), enc.out_dim());
  const nn::Var taped = enc.encode(inst.net.view, node_feats, edge_feats);
  EXPECT_TRUE(nn::bitwise_equal(taped->value, ref->value));
  GraphEncoder::Workspace ws;
  nn::Matrix out;
  for (int pass = 0; pass < 2; ++pass) {
    enc.encode_into(inst.net.view, node_feats, edge_feats, ws, out);
    EXPECT_TRUE(nn::bitwise_equal(out, ref->value)) << "pass " << pass;
  }
}

// The shipped widths run compile-time instances of the forward-only rows;
// dim_o = 3 (a message width of 7 with edge features, 3 without) runs the
// same body at run-time widths. Both run here with nonzero biases, on node
// and edge features with exact +0.0 and -0.0 entries.
TEST_P(EncoderBitwise, RunTimeWidthsBiasesAndSignedZerosMatchPerNodeReference) {
  for (const int embed : {3, 5}) {
    SCOPED_TRACE("embed_dim " + std::to_string(embed));
    expect_rows_match_reference(GetParam(), embed);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EncoderBitwise,
                         ::testing::Values(GnnKind::kGiPH, GnnKind::kGiPHK,
                                           GnnKind::kGiPHNE, GnnKind::kGraphSAGE,
                                           GnnKind::kNone));

// The encoder's sequential pass is one tape node per direction, whose
// backward repeats the per-level op chain's additions. A loss must give
// every parameter the gradient bytes of the per-node-slice tape: a fixed
// weighted loss on the test gpNet, a 12 x 5 one, a 20 x 8 one, a 12-task
// chain's (the most levels for its size) and an edgeless graph's (only the
// identity head runs), and a decide's log-probability, over every non-pivot
// candidate and over just two, which leaves most embedding rows without
// gradient.
class TapeGradients : public ::testing::TestWithParam<GnnKind> {
 protected:
  struct Model {
    GnnConfig cfg;
    nn::ParamRegistry reg;
    std::unique_ptr<GraphEncoder> enc;
    std::unique_ptr<ScorePolicy> policy;
    std::mt19937_64 rng{5};
    Model(GnnKind kind, bool with_policy) {
      cfg.kind = kind;
      const bool merged = kind == GnnKind::kGiPHNE;
      cfg.node_dim = merged ? 8 : 4;
      cfg.edge_dim = merged ? 0 : 4;
      enc = std::make_unique<GraphEncoder>(reg, cfg, rng);
      if (with_policy) {
        policy = std::make_unique<ScorePolicy>(reg, "policy", enc->out_dim(), rng);
      }
    }
  };

  /// Checks `loss_of` on the encoder's embeddings against the same loss on
  /// the per-node-slice reference, every parameter's gradient bytewise.
  template <class Loss>
  void expect_reference_gradients(Model& model, const Instance& inst, Loss&& loss_of) {
    const bool merged = model.cfg.edge_dim == 0;
    const nn::Matrix node_feats =
        merged ? append_mean_out_edge_features(inst.net, inst.feats) : inst.feats.node;
    const nn::Matrix edge_feats = merged ? nn::Matrix() : inst.feats.edge;
    nn::ParamRegistry& reg = model.reg;
    auto gradients_of = [&](const nn::Var& emb) {
      reg.zero_grad();
      nn::backward(loss_of(emb));
      std::vector<nn::Matrix> grads;
      for (const nn::Var& p : reg.params()) grads.push_back(p->grad);
      return grads;
    };

    const nn::Var emb = model.enc->encode(inst.net.view, node_feats, edge_feats);
    const std::vector<nn::Matrix> got = gradients_of(emb);

    const nn::Var nodes = nn::constant(node_feats);
    const nn::Var edges = nn::constant(edge_feats);
    const nn::Var pre = ref_pre(reg, nodes);
    const std::vector<nn::Var> fwd =
        ref_level_slices(reg, inst.net.view, pre, edges, !merged, "gnn.fwd", true);
    const std::vector<nn::Var> bwd =
        ref_level_slices(reg, inst.net.view, pre, edges, !merged, "gnn.bwd", false);
    const nn::Var ref = nn::concat_cols({nn::concat_rows(fwd), nn::concat_rows(bwd)});
    EXPECT_TRUE(nn::bitwise_equal(emb->value, ref->value));
    const std::vector<nn::Matrix> want = gradients_of(ref);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::string& name = reg.names()[i];
      // Without edges no message passes: the message and aggregate layers
      // get no gradient at all.
      const bool passes_messages = name.rfind("gnn.fwd", 0) == 0 || name.rfind("gnn.bwd", 0) == 0;
      if (inst.net.view.edges.empty() && passes_messages) {
        EXPECT_EQ(got[i].size(), 0u) << name;
      } else {
        EXPECT_GT(got[i].size(), 0u) << name;
      }
      EXPECT_TRUE(nn::bitwise_equal(got[i], want[i])) << name;
    }
  }
};

TEST_P(TapeGradients, MatchPerNodeSliceTapeBitwise) {
  std::vector<std::pair<std::string, Instance>> cases;
  for (const auto& [tasks, devices] :
       {std::pair{8, 4}, std::pair{12, 5}, std::pair{20, 8}}) {
    cases.emplace_back(std::to_string(tasks) + " tasks x " + std::to_string(devices) +
                           " devices",
                       Instance(tasks, devices));
  }
  cases.emplace_back("12-task chain x 5 devices", Instance(line_graph(12, true), 5));
  cases.emplace_back("6 tasks, no edges x 4 devices", Instance(line_graph(6, false), 4));
  for (const auto& [name, inst] : cases) {
    SCOPED_TRACE(name);
    Model model(GetParam(), /*with_policy=*/false);
    nn::Matrix loss_weights(inst.net.num_nodes(), model.enc->out_dim());
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (int i = 0; i < loss_weights.rows(); ++i) {
      for (int j = 0; j < loss_weights.cols(); ++j) loss_weights(i, j) = d(model.rng);
    }
    expect_reference_gradients(model, inst, [&](const nn::Var& emb) {
      return nn::sum_all(nn::mul(emb, nn::constant(loss_weights)));
    });
  }
}

TEST_P(TapeGradients, DecideLogProbMatchesPerNodeSliceTapeBitwise) {
  for (const Instance& inst : {Instance(20, 8), Instance(line_graph(12, true), 5)}) {
    Model model(GetParam(), /*with_policy=*/true);
    // Every non-pivot node, as decide's candidates, then just two of them.
    std::vector<int> candidates;
    for (int u = 0; u < inst.net.num_nodes(); ++u) {
      if (!inst.net.is_pivot[u]) candidates.push_back(u);
    }
    for (const std::size_t keep : {candidates.size(), std::size_t{2}}) {
      SCOPED_TRACE(std::to_string(inst.g.num_tasks()) + " tasks, " +
                   std::to_string(keep) + " candidates");
      const std::vector<int> cands(candidates.begin(),
                                   candidates.begin() + static_cast<long>(keep));
      int choice = -1;
      expect_reference_gradients(model, inst, [&](const nn::Var& emb) {
        std::mt19937_64 draw(41);
        const ScorePolicy::Sample s = model.policy->act(emb, cands, draw, false);
        if (choice >= 0) EXPECT_EQ(s.choice, choice);
        choice = s.choice;
        return s.log_prob;
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GiPHKinds, TapeGradients,
                         ::testing::Values(GnnKind::kGiPH, GnnKind::kGiPHNE));

// A decide's tape grows with the task graph's depth, not with the gpNet:
// the same task graph on twice the devices (a gpNet about twice the size)
// builds exactly as many tape nodes.
TEST(GraphEncoder, TapeSizeDoesNotGrowWithDevices) {
  std::mt19937_64 rng(77);
  TaskGraphParams gp;
  gp.num_tasks = 20;
  const TaskGraph g = generate_task_graph(gp, rng);
  std::vector<std::size_t> sizes, gpnet_nodes;
  for (const int devices : {8, 16}) {
    NetworkParams np;
    np.num_devices = devices;
    DeviceNetwork n = generate_device_network(np, rng);
    ensure_all_kinds(n, np.num_hw_kinds, rng);
    PlacementSearchEnv env(g, n, kLat, makespan_objective(kLat),
                           random_placement(g, n, rng), slr_denominator(g, n, kLat));
    GiPHAgent agent(GiPHOptions{});
    agent.begin_episode();
    std::mt19937_64 act_rng(3);
    const ActionDecision d = agent.decide(env, act_rng, false);
    ASSERT_TRUE(d.log_prob);
    sizes.push_back(nn::graph_size(d.log_prob));
    gpnet_nodes.push_back(build_gpnet(g, n, env.placement(), env.feasible()).num_nodes());
  }
  EXPECT_GT(gpnet_nodes[1], gpnet_nodes[0] + 100);
  EXPECT_EQ(sizes[0], sizes[1]);
}

// Nor does it grow with the task graph's depth: the sequential pass is one
// tape node per direction however many levels it has.
TEST(GraphEncoder, TapeSizeDoesNotGrowWithDepth) {
  std::mt19937_64 rng(77);
  NetworkParams np;
  np.num_devices = 6;
  DeviceNetwork n = generate_device_network(np, rng);
  ensure_all_kinds(n, np.num_hw_kinds, rng);
  std::vector<std::size_t> sizes;
  for (const int tasks : {6, 18}) {
    const TaskGraph g = line_graph(tasks, true);
    PlacementSearchEnv env(g, n, kLat, makespan_objective(kLat),
                           random_placement(g, n, rng), slr_denominator(g, n, kLat));
    GiPHAgent agent(GiPHOptions{});
    agent.begin_episode();
    std::mt19937_64 act_rng(3);
    const ActionDecision d = agent.decide(env, act_rng, false);
    ASSERT_TRUE(d.log_prob);
    sizes.push_back(nn::graph_size(d.log_prob));
  }
  EXPECT_EQ(sizes[0], sizes[1]);
}

// The forward-only head makes the same choice with the same RNG draws, and
// its log-probability is the tape's bytes.
TEST(ScorePolicy, ChooseMatchesActBitwise) {
  Instance inst;
  GnnConfig cfg;
  std::mt19937_64 rng(5);
  nn::ParamRegistry reg;
  const GraphEncoder enc(reg, cfg, rng);
  const ScorePolicy pol(reg, "policy", enc.out_dim(), rng);
  const nn::Var emb = enc.encode(inst.net.view, inst.feats.node, inst.feats.edge);
  std::vector<int> candidates;
  for (int u = 0; u < inst.net.num_nodes(); ++u) {
    if (!inst.net.is_pivot[u]) candidates.push_back(u);
  }
  ScorePolicy::Workspace ws;
  for (const bool greedy : {true, false}) {
    std::mt19937_64 tape_rng(41), choose_rng(41);
    for (int i = 0; i < 200; ++i) {
      const ScorePolicy::Sample s = pol.act(emb, candidates, tape_rng, greedy);
      const ScorePolicy::Choice c =
          pol.choose(emb->value, candidates, choose_rng, greedy, ws);
      ASSERT_EQ(s.choice, c.choice) << "draw " << i;
      EXPECT_TRUE(nn::bitwise_equal(s.log_prob->value, nn::Matrix::scalar(c.log_prob)));
      ASSERT_TRUE(tape_rng == choose_rng) << "draw " << i;
    }
  }
  EXPECT_THROW(pol.choose(emb->value, {}, rng, false, ws), std::invalid_argument);
}

// The same at an input width the score head's compile-time rows do not
// cover (7 -> 16 -> 1), with nonzero biases, over rows with exact +0.0 and
// -0.0 entries; an embedding matrix of another width is rejected.
TEST(ScorePolicy, ChooseMatchesActBitwiseAtRunTimeWidth) {
  std::mt19937_64 rng(12);
  nn::ParamRegistry reg;
  const ScorePolicy pol(reg, "policy", 7, rng);
  randomize_biases(reg, rng);
  nn::Matrix m(30, 7);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = d(rng);
  sign_zeros(m);
  const nn::Var emb = nn::constant(m);
  const std::vector<int> candidates{0, 3, 4, 8, 9, 15, 21, 22, 29};
  ScorePolicy::Workspace ws;
  for (const bool greedy : {true, false}) {
    std::mt19937_64 tape_rng(43), choose_rng(43);
    for (int i = 0; i < 100; ++i) {
      const ScorePolicy::Sample s = pol.act(emb, candidates, tape_rng, greedy);
      const ScorePolicy::Choice c = pol.choose(m, candidates, choose_rng, greedy, ws);
      ASSERT_EQ(s.choice, c.choice) << "draw " << i;
      EXPECT_TRUE(nn::bitwise_equal(s.log_prob->value, nn::Matrix::scalar(c.log_prob)));
      ASSERT_TRUE(tape_rng == choose_rng) << "draw " << i;
    }
  }
  EXPECT_THROW(pol.choose(nn::Matrix(30, 6), candidates, rng, true, ws),
               std::invalid_argument);
}

TEST(ScorePolicy, LogProbGradientReachesScoreParams) {
  std::mt19937_64 rng(9);
  nn::ParamRegistry reg;
  const ScorePolicy pol(reg, "p", 3, rng);
  const nn::Var emb = nn::constant(nn::Matrix(5, 3, 0.5));
  std::mt19937_64 sr(4);
  const auto s = pol.act(emb, {0, 1, 2, 3, 4}, sr, false);
  nn::backward(s.log_prob);
  // At least the first-layer weights must receive gradient. (With identical
  // candidate rows the final-layer weight gradient can cancel exactly.)
  EXPECT_GT(reg.params()[0]->grad.size(), 0u);
}

}  // namespace
}  // namespace giph
