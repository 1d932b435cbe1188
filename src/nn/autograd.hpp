#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.hpp"

namespace giph::nn {

class Node;
/// Handle to a node of the dynamically built computation graph. Graphs are
/// rebuilt per forward pass (define-by-run); parameters are long-lived leaf
/// nodes whose gradients accumulate until the optimizer consumes them.
using Var = std::shared_ptr<Node>;

class Node {
 public:
  Matrix value;
  Matrix grad;  ///< allocated lazily on first accumulation
  bool requires_grad = false;
  std::uint64_t id = 0;  ///< creation order (reverse-topological backward)
  std::vector<Var> inputs;
  /// Accumulates into inputs' grads given this->grad; null for leaves and for
  /// subgraphs that do not require gradients.
  std::function<void(const Node&)> backward_fn;

  Matrix& ensure_grad() {
    if (grad.size() == 0) grad = Matrix::zeros(value.rows(), value.cols());
    return grad;
  }
};

/// Leaf with no gradient (e.g. input features).
Var constant(Matrix v);
/// Leaf with gradient accumulation (trainable parameter).
Var parameter(Matrix v);

/// A node whose backward the caller writes. nn::backward calls `backward_fn`
/// with the node once its gradient is complete, and the function adds into
/// the gradients (ensure_grad) of those `inputs` that require one, as the
/// built-in ops below do. For fused ops that record their own intermediates,
/// such as the GNN's message-passing pass.
Var custom_op(Matrix value, std::vector<Var> inputs,
              std::function<void(const Node&)> backward_fn);

/// Reverse-mode accumulation from `root` (any shape; seeded with ones).
/// Parameter gradients accumulate across calls until zeroed by the optimizer.
void backward(const Var& root);

// ---- operators -----------------------------------------------------------

Var matmul(const Var& a, const Var& b);
Var add(const Var& a, const Var& b);          // same shape
Var add_rowvec(const Var& a, const Var& b);   // b: 1 x c, broadcast over rows
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);          // elementwise
Var scale(const Var& a, double s);

Var relu(const Var& a);
Var tanh_act(const Var& a);
Var sigmoid_act(const Var& a);

Var concat_cols(const std::vector<Var>& xs);  // same rows
Var concat_rows(const std::vector<Var>& xs);  // same cols
Var slice_cols(const Var& a, int c0, int c1); // [c0, c1)
Var slice_rows(const Var& a, int r0, int r1);
inline Var row(const Var& a, int r) { return slice_rows(a, r, r + 1); }
Var gather_rows(const Var& a, std::vector<int> rows);

Var transpose_of(const Var& a);

Var sum_rows(const Var& a);   // (r x c) -> (1 x c)
Var mean_rows(const Var& a);
Var sum_all(const Var& a);    // -> 1 x 1

/// Grouped row mean: out row g = mean of a's rows [offsets[g], offsets[g+1]).
/// offsets must be ascending with offsets.front() == 0 and offsets.back() ==
/// rows(a). The batched equivalent of calling mean_rows on each contiguous
/// slice — same zero-initialized ascending-row accumulation, same
/// 1.0 / max(1, k) scale factor, so each output row is bitwise identical to
/// the per-group mean_rows result. An empty group yields a zero row. With
/// identity_single, size-1 groups copy their row unscaled instead — matching
/// callers that skip the mean entirely for a lone row (GraphSAGE), which
/// preserves -0.0 where (0.0 + x) * 1.0 would not.
Var segment_mean_rows(const Var& a, std::vector<int> offsets,
                      bool identity_single = false);

/// Column-vector softmax / log-softmax (k x 1), numerically stabilized.
Var softmax_col(const Var& a);
Var log_softmax_col(const Var& a);

/// Scalar element (r, c) as a 1 x 1 node.
Var pick(const Var& a, int r, int c);

/// 1 x 1 node equal to sum_i weights[i] * scalars[i] (each scalar is 1 x 1).
/// Used to assemble the REINFORCE loss in a single node.
Var weighted_sum(const std::vector<Var>& scalars, const std::vector<double>& weights);

/// Number of nodes reachable from root (diagnostics / tests).
std::size_t graph_size(const Var& root);

}  // namespace giph::nn
