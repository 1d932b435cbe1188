#pragma once

#include <random>

#include "core/gpnet.hpp"
#include "nn/layers.hpp"

namespace giph {

/// GNN architecture variants evaluated in the paper (Section 4.2.2 and
/// Appendix B.6).
enum class GnnKind {
  kGiPH,       ///< full-depth two-way message passing with edge features (Eq. 1)
  kGiPHK,      ///< k-step two-way message passing (Eq. 4), GiPH-k
  kGiPHNE,     ///< two-way message passing without edge features (GiPH-NE)
  kGraphSAGE,  ///< 3-layer uni-directional GraphSAGE (GraphSAGE-NE)
  kNone,       ///< no GNN: raw node features straight to the policy (GiPH-NE-Pol)
};

struct GnnConfig {
  GnnKind kind = GnnKind::kGiPH;
  int node_dim = 4;   ///< raw node feature dim (8 for the -NE variants)
  int edge_dim = 4;   ///< raw edge feature dim (ignored by -NE variants)
  int embed_dim = 5;  ///< dim_o per direction
  int k_steps = 3;    ///< message-passing steps for kGiPHK / layers for kGraphSAGE
};

/// Graph neural network over an arbitrary DAG (a gpNet, or the raw task
/// graph for GiPH-task-EFT). Messages pass along edge direction ("forward",
/// summarizing ancestors) and against it ("backward", summarizing
/// descendants) with separate parameters; the two summaries are concatenated
/// per node (Section 4.2.2).
class GraphEncoder {
 public:
  GraphEncoder(nn::ParamRegistry& reg, const GnnConfig& cfg, std::mt19937_64& rng);

  /// Returns a (num_nodes x out_dim) embedding matrix. `node_features` must
  /// be (num_nodes x node_dim); `edge_features` (num_edges x edge_dim) and is
  /// ignored by kinds that do not use edge features.
  nn::Var encode(const GraphView& view, const nn::Matrix& node_features,
                 const nn::Matrix& edge_features) const;

  /// Scratch rows of encode_into. Keep one per caller and reuse it: once its
  /// buffers have grown to a graph's size, encode_into allocates nothing.
  struct Workspace {
    nn::Matrix pre;          ///< pre-embedded node rows
    nn::Matrix prefix;       ///< per node: its message-layer partial sums
    nn::Matrix cur, next;    ///< k-step and GraphSAGE rows, ping-pong
    std::vector<double> row;  ///< per-node scratch at run-time widths
    std::vector<double> mlp;  ///< MLP::forward_rows scratch
  };

  /// Forward-only encode: writes into `out` the (num_nodes x out_dim) values
  /// encode() returns, bitwise, without building a tape node. Each node is
  /// visited once in `view.topo` order (per step for the k-step and
  /// GraphSAGE kinds); every op repeats the tape's accumulation order and
  /// zero-skip, and a message layer's first dim_o input terms (the source
  /// embedding) are summed once per source node and finished per edge from
  /// that edge's features. DESIGN.md "Forward-only inference" has the
  /// argument. Same shape checks as encode().
  void encode_into(const GraphView& view, const nn::Matrix& node_features,
                   const nn::Matrix& edge_features, Workspace& ws, nn::Matrix& out) const;

  int out_dim() const noexcept { return out_dim_; }
  const GnnConfig& config() const noexcept { return cfg_; }

 private:
  struct Direction {
    nn::Linear message;    ///< h1
    nn::Linear aggregate;  ///< h2
  };

  /// What one taped sequential pass keeps for its backward (gnn.cpp).
  struct PassRecord;

  /// One direction of sequential (full-depth) message passing as one tape
  /// node. Its forward is sequential_into with a record. Its backward walks
  /// the dependency levels from the last and makes the additions of the
  /// equivalent per-level op chain in that chain's order, so its gradients
  /// are bitwise the chain's (DESIGN.md, "Training tape"). `ws.pre` must
  /// hold pre's value. Returns the num_nodes x dim_o matrix.
  nn::Var pass_sequential(const GraphView& view, const nn::Var& pre,
                          const nn::Var& edge_feats, const Direction& dir,
                          bool forward, Workspace& ws) const;
  /// One direction of k-step synchronous message passing (Eq. 4), every step
  /// batched over the whole graph. Returns the num_nodes x dim_o matrix.
  nn::Var pass_k_steps(const GraphView& view, const nn::Var& pre,
                       const nn::Var& edge_feats, const Direction& dir,
                       bool forward) const;

  /// The forward of the two passes: write this direction's dim_o columns of
  /// `out` starting at `col`. Both read ws.pre. sequential_into is also the
  /// taped pass's forward, which passes a record; the forward-only encode
  /// passes none.
  void sequential_into(const GraphView& view, const nn::Matrix& edge_feats,
                       const Direction& dir, bool forward, Workspace& ws,
                       nn::Matrix& out, int col, PassRecord* rec) const;
  void k_steps_into(const GraphView& view, const nn::Matrix& edge_feats,
                    const Direction& dir, bool forward, Workspace& ws, nn::Matrix& out,
                    int col) const;
  /// One node's message-passing update into `dst` (dim_o values): the mean
  /// of its incoming messages, each finished from its source's ws.prefix
  /// row, through the aggregate layer, plus its own ws.pre row; just that
  /// ws.pre row when no message comes in. With a record, each message's
  /// pre-relu row, the mean and the pre-relu aggregate go to u's rows of it.
  /// The widths (dim_o, edge, message) are each nn::Fixed or int, picked
  /// once per pass (gnn.cpp, at_message_widths); `scratch` holds the
  /// message, mean and aggregate rows at int widths (nn::Row).
  template <class E, class D, class M>
  void update_node(E eo, D ed, M mo, const GraphView& view, int u,
                   const nn::Matrix& edge_feats, const Direction& dir, bool forward,
                   const Workspace& ws, double* scratch, double* dst,
                   PassRecord* rec) const;
  void graphsage_into(const GraphView& view, const nn::Matrix& node_features,
                      Workspace& ws, nn::Matrix& out) const;

  GnnConfig cfg_;
  int out_dim_ = 0;
  nn::MLP pre_embed_;          ///< node feature pre-embedding (h3 for GiPH-k)
  Direction fwd_, bwd_;
  std::vector<nn::Linear> sage_layers_;  ///< kGraphSAGE
  nn::Linear sage_transform_;
};

/// Policy head (Section 4.2.3): a score MLP (in -> 16 -> 1) applied per
/// embedding row, masked to a candidate set, then softmax.
class ScorePolicy {
 public:
  ScorePolicy(nn::ParamRegistry& reg, const std::string& name, int in_dim,
              std::mt19937_64& rng);

  struct Sample {
    int choice = -1;       ///< element of `candidates` that was selected
    nn::Var log_prob;      ///< log pi(a | s), differentiable
    double prob = 0.0;     ///< probability of the sampled action
  };

  /// Samples (or arg-maxes when greedy) among `candidates`, which index rows
  /// of `embeddings`. Throws on an empty candidate set.
  Sample act(const nn::Var& embeddings, const std::vector<int>& candidates,
             std::mt19937_64& rng, bool greedy = false) const;

  struct Choice {
    int choice = -1;        ///< element of `candidates` that was selected
    double log_prob = 0.0;  ///< log pi(a | s), bitwise act()'s log_prob value
  };

  /// Scratch of choose(); reuse one across calls.
  struct Workspace {
    std::vector<double> scores, log_probs, mlp;
  };

  /// Forward-only act(): the same choice, log-probability and RNG draws,
  /// with no tape and, once `ws` is warm, no allocation. Throws on an empty
  /// candidate set, a candidate out of range or rows of the wrong width.
  Choice choose(const nn::Matrix& embeddings, const std::vector<int>& candidates,
                std::mt19937_64& rng, bool greedy, Workspace& ws) const;

 private:
  nn::MLP score_;
};

}  // namespace giph
