#include "nn/autograd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace giph::nn {
namespace {

std::atomic<std::uint64_t> g_next_id{1};

Var make_node(Matrix value, std::vector<Var> inputs,
              std::function<void(const Node&)> backward_fn) {
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  n->inputs = std::move(inputs);
  n->id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  for (const Var& in : n->inputs) {
    if (in->requires_grad) {
      n->requires_grad = true;
      break;
    }
  }
  if (n->requires_grad) n->backward_fn = std::move(backward_fn);
  return n;
}

void collect(const Var& root, std::vector<Node*>& order) {
  std::unordered_set<Node*> seen;
  std::vector<Node*> stack{root.get()};
  seen.insert(root.get());
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    order.push_back(n);
    for (const Var& in : n->inputs) {
      if (in->requires_grad && seen.insert(in.get()).second) stack.push_back(in.get());
    }
  }
  std::sort(order.begin(), order.end(), [](Node* a, Node* b) { return a->id > b->id; });
}

}  // namespace

Var constant(Matrix v) {
  auto n = std::make_shared<Node>();
  n->value = std::move(v);
  n->id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  return n;
}

Var parameter(Matrix v) {
  Var n = constant(std::move(v));
  n->requires_grad = true;
  return n;
}

Var custom_op(Matrix value, std::vector<Var> inputs,
              std::function<void(const Node&)> backward_fn) {
  return make_node(std::move(value), std::move(inputs), std::move(backward_fn));
}

void backward(const Var& root) {
  if (!root->requires_grad) return;
  std::vector<Node*> order;
  collect(root, order);
  Matrix& g = root->ensure_grad();
  for (int i = 0; i < g.rows(); ++i) {
    for (int j = 0; j < g.cols(); ++j) g(i, j) += 1.0;
  }
  // Interior gradients are scratch space: each is released (with its
  // closure) as soon as it has been pushed to the node's inputs. Inputs have
  // lower ids than their consumers, so in this order nothing adds to or reads
  // a released gradient again, and a gradient lives only from its first
  // consumer's visit to its own. Parameters (leaves) keep their accumulated
  // grads for the optimizer.
  for (Node* n : order) {
    if (!n->backward_fn) continue;
    n->backward_fn(*n);
    n->grad = Matrix();
    n->backward_fn = nullptr;
  }
}

std::size_t graph_size(const Var& root) {
  std::unordered_set<Node*> seen;
  std::vector<Node*> stack{root.get()};
  seen.insert(root.get());
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    for (const Var& in : n->inputs) {
      if (seen.insert(in.get()).second) stack.push_back(in.get());
    }
  }
  return seen.size();
}

Var matmul(const Var& a, const Var& b) {
  return make_node(matmul(a->value, b->value), {a, b}, [](const Node& n) {
    const Var& a = n.inputs[0];
    const Var& b = n.inputs[1];
    if (a->requires_grad) a->ensure_grad() += matmul_nt(n.grad, b->value);
    if (b->requires_grad) b->ensure_grad() += matmul_tn(a->value, n.grad);
  });
}

Var add(const Var& a, const Var& b) {
  if (!a->value.same_shape(b->value)) throw std::invalid_argument("add: shape mismatch");
  return make_node(a->value + b->value, {a, b}, [](const Node& n) {
    for (const Var& in : n.inputs) {
      if (in->requires_grad) in->ensure_grad() += n.grad;
    }
  });
}

Var add_rowvec(const Var& a, const Var& b) {
  if (b->value.rows() != 1 || b->value.cols() != a->value.cols()) {
    throw std::invalid_argument("add_rowvec: b must be 1 x cols(a)");
  }
  Matrix v = a->value;
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) v(i, j) += b->value(0, j);
  }
  return make_node(std::move(v), {a, b}, [](const Node& n) {
    const Var& a = n.inputs[0];
    const Var& b = n.inputs[1];
    if (a->requires_grad) a->ensure_grad() += n.grad;
    if (b->requires_grad) {
      Matrix& g = b->ensure_grad();
      for (int i = 0; i < n.grad.rows(); ++i) {
        for (int j = 0; j < n.grad.cols(); ++j) g(0, j) += n.grad(i, j);
      }
    }
  });
}

Var sub(const Var& a, const Var& b) {
  if (!a->value.same_shape(b->value)) throw std::invalid_argument("sub: shape mismatch");
  return make_node(a->value - b->value, {a, b}, [](const Node& n) {
    const Var& a = n.inputs[0];
    const Var& b = n.inputs[1];
    if (a->requires_grad) a->ensure_grad() += n.grad;
    if (b->requires_grad) b->ensure_grad() -= n.grad;
  });
}

Var mul(const Var& a, const Var& b) {
  if (!a->value.same_shape(b->value)) throw std::invalid_argument("mul: shape mismatch");
  return make_node(hadamard(a->value, b->value), {a, b}, [](const Node& n) {
    const Var& a = n.inputs[0];
    const Var& b = n.inputs[1];
    if (a->requires_grad) a->ensure_grad() += hadamard(n.grad, b->value);
    if (b->requires_grad) b->ensure_grad() += hadamard(n.grad, a->value);
  });
}

Var scale(const Var& a, double s) {
  return make_node(a->value * s, {a}, [s](const Node& n) {
    n.inputs[0]->ensure_grad() += n.grad * s;
  });
}

Var relu(const Var& a) {
  Matrix v = a->value;
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) v(i, j) = std::max(0.0, v(i, j));
  }
  return make_node(std::move(v), {a}, [](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    const Matrix& x = n.inputs[0]->value;
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) {
        if (x(i, j) > 0.0) g(i, j) += n.grad(i, j);
      }
    }
  });
}

Var tanh_act(const Var& a) {
  Matrix v = a->value;
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) v(i, j) = std::tanh(v(i, j));
  }
  return make_node(std::move(v), {a}, [](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) {
        const double y = n.value(i, j);
        g(i, j) += n.grad(i, j) * (1.0 - y * y);
      }
    }
  });
}

Var sigmoid_act(const Var& a) {
  Matrix v = a->value;
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) v(i, j) = 1.0 / (1.0 + std::exp(-v(i, j)));
  }
  return make_node(std::move(v), {a}, [](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) {
        const double y = n.value(i, j);
        g(i, j) += n.grad(i, j) * y * (1.0 - y);
      }
    }
  });
}

Var concat_cols(const std::vector<Var>& xs) {
  if (xs.empty()) throw std::invalid_argument("concat_cols: empty");
  const int rows = xs[0]->value.rows();
  int cols = 0;
  for (const Var& x : xs) {
    if (x->value.rows() != rows) throw std::invalid_argument("concat_cols: row mismatch");
    cols += x->value.cols();
  }
  Matrix v(rows, cols);
  int off = 0;
  for (const Var& x : xs) {
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < x->value.cols(); ++j) v(i, off + j) = x->value(i, j);
    }
    off += x->value.cols();
  }
  return make_node(std::move(v), xs, [](const Node& n) {
    int off = 0;
    for (const Var& in : n.inputs) {
      const int c = in->value.cols();
      if (in->requires_grad) {
        Matrix& g = in->ensure_grad();
        for (int i = 0; i < g.rows(); ++i) {
          for (int j = 0; j < c; ++j) g(i, j) += n.grad(i, off + j);
        }
      }
      off += c;
    }
  });
}

Var concat_rows(const std::vector<Var>& xs) {
  if (xs.empty()) throw std::invalid_argument("concat_rows: empty");
  const int cols = xs[0]->value.cols();
  int rows = 0;
  for (const Var& x : xs) {
    if (x->value.cols() != cols) throw std::invalid_argument("concat_rows: col mismatch");
    rows += x->value.rows();
  }
  Matrix v(rows, cols);
  int off = 0;
  for (const Var& x : xs) {
    for (int i = 0; i < x->value.rows(); ++i) {
      for (int j = 0; j < cols; ++j) v(off + i, j) = x->value(i, j);
    }
    off += x->value.rows();
  }
  return make_node(std::move(v), xs, [](const Node& n) {
    int off = 0;
    for (const Var& in : n.inputs) {
      const int r = in->value.rows();
      if (in->requires_grad) {
        Matrix& g = in->ensure_grad();
        for (int i = 0; i < r; ++i) {
          for (int j = 0; j < g.cols(); ++j) g(i, j) += n.grad(off + i, j);
        }
      }
      off += r;
    }
  });
}

Var slice_cols(const Var& a, int c0, int c1) {
  if (c0 < 0 || c1 > a->value.cols() || c0 >= c1) {
    throw std::invalid_argument("slice_cols: bad range");
  }
  Matrix v(a->value.rows(), c1 - c0);
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) v(i, j) = a->value(i, c0 + j);
  }
  return make_node(std::move(v), {a}, [c0](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    for (int i = 0; i < n.grad.rows(); ++i) {
      for (int j = 0; j < n.grad.cols(); ++j) g(i, c0 + j) += n.grad(i, j);
    }
  });
}

Var slice_rows(const Var& a, int r0, int r1) {
  if (r0 < 0 || r1 > a->value.rows() || r0 >= r1) {
    throw std::invalid_argument("slice_rows: bad range");
  }
  Matrix v(r1 - r0, a->value.cols());
  for (int i = 0; i < v.rows(); ++i) {
    for (int j = 0; j < v.cols(); ++j) v(i, j) = a->value(r0 + i, j);
  }
  return make_node(std::move(v), {a}, [r0](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    for (int i = 0; i < n.grad.rows(); ++i) {
      for (int j = 0; j < n.grad.cols(); ++j) g(r0 + i, j) += n.grad(i, j);
    }
  });
}

Var gather_rows(const Var& a, std::vector<int> rows) {
  Matrix v(static_cast<int>(rows.size()), a->value.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] < 0 || rows[i] >= a->value.rows()) {
      throw std::invalid_argument("gather_rows: index out of range");
    }
    for (int j = 0; j < a->value.cols(); ++j) {
      v(static_cast<int>(i), j) = a->value(rows[i], j);
    }
  }
  return make_node(std::move(v), {a}, [rows = std::move(rows)](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (int j = 0; j < n.grad.cols(); ++j) {
        g(rows[i], j) += n.grad(static_cast<int>(i), j);
      }
    }
  });
}

Var transpose_of(const Var& a) {
  return make_node(transpose(a->value), {a}, [](const Node& n) {
    n.inputs[0]->ensure_grad() += transpose(n.grad);
  });
}

Var sum_rows(const Var& a) {
  Matrix v(1, a->value.cols());
  for (int i = 0; i < a->value.rows(); ++i) {
    for (int j = 0; j < a->value.cols(); ++j) v(0, j) += a->value(i, j);
  }
  return make_node(std::move(v), {a}, [](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) g(i, j) += n.grad(0, j);
    }
  });
}

Var mean_rows(const Var& a) {
  const double inv = 1.0 / std::max(1, a->value.rows());
  return scale(sum_rows(a), inv);
}

Var segment_mean_rows(const Var& a, std::vector<int> offsets, bool identity_single) {
  const int rows = a->value.rows();
  const int cols = a->value.cols();
  if (offsets.size() < 2 || offsets.front() != 0 || offsets.back() != rows) {
    throw std::invalid_argument("segment_mean_rows: bad offsets");
  }
  for (std::size_t g = 1; g < offsets.size(); ++g) {
    if (offsets[g] < offsets[g - 1]) {
      throw std::invalid_argument("segment_mean_rows: offsets not ascending");
    }
  }
  const int groups = static_cast<int>(offsets.size()) - 1;
  Matrix v(groups, cols);
  for (int g = 0; g < groups; ++g) {
    const int r0 = offsets[g];
    const int r1 = offsets[g + 1];
    if (identity_single && r1 - r0 == 1) {
      for (int j = 0; j < cols; ++j) v(g, j) = a->value(r0, j);
      continue;
    }
    // Mirrors mean_rows exactly: zero-initialized ascending accumulation,
    // then one multiply by the inverse count.
    const double inv = 1.0 / std::max(1, r1 - r0);
    for (int i = r0; i < r1; ++i) {
      for (int j = 0; j < cols; ++j) v(g, j) += a->value(i, j);
    }
    for (int j = 0; j < cols; ++j) v(g, j) *= inv;
  }
  return make_node(std::move(v), {a},
                   [offsets = std::move(offsets), identity_single](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    const int groups = static_cast<int>(offsets.size()) - 1;
    for (int s = 0; s < groups; ++s) {
      const int r0 = offsets[s];
      const int r1 = offsets[s + 1];
      const double inv =
          identity_single && r1 - r0 == 1 ? 1.0 : 1.0 / std::max(1, r1 - r0);
      for (int i = r0; i < r1; ++i) {
        for (int j = 0; j < g.cols(); ++j) g(i, j) += n.grad(s, j) * inv;
      }
    }
  });
}

Var sum_all(const Var& a) {
  double s = 0.0;
  for (int i = 0; i < a->value.rows(); ++i) {
    for (int j = 0; j < a->value.cols(); ++j) s += a->value(i, j);
  }
  return make_node(Matrix::scalar(s), {a}, [](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    const double go = n.grad(0, 0);
    for (int i = 0; i < g.rows(); ++i) {
      for (int j = 0; j < g.cols(); ++j) g(i, j) += go;
    }
  });
}

Var softmax_col(const Var& a) {
  if (a->value.cols() != 1) throw std::invalid_argument("softmax_col: expects k x 1");
  const int k = a->value.rows();
  double mx = a->value(0, 0);
  for (int i = 1; i < k; ++i) mx = std::max(mx, a->value(i, 0));
  Matrix v(k, 1);
  double z = 0.0;
  for (int i = 0; i < k; ++i) {
    v(i, 0) = std::exp(a->value(i, 0) - mx);
    z += v(i, 0);
  }
  for (int i = 0; i < k; ++i) v(i, 0) /= z;
  return make_node(std::move(v), {a}, [](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    double dot = 0.0;
    for (int i = 0; i < n.value.rows(); ++i) dot += n.value(i, 0) * n.grad(i, 0);
    for (int i = 0; i < n.value.rows(); ++i) {
      g(i, 0) += n.value(i, 0) * (n.grad(i, 0) - dot);
    }
  });
}

Var log_softmax_col(const Var& a) {
  if (a->value.cols() != 1) throw std::invalid_argument("log_softmax_col: expects k x 1");
  Matrix v(a->value.rows(), 1);
  log_softmax(a->value.data(), a->value.rows(), v.data());
  return make_node(std::move(v), {a}, [](const Node& n) {
    Matrix& g = n.inputs[0]->ensure_grad();
    double gsum = 0.0;
    for (int i = 0; i < n.value.rows(); ++i) gsum += n.grad(i, 0);
    for (int i = 0; i < n.value.rows(); ++i) {
      g(i, 0) += n.grad(i, 0) - std::exp(n.value(i, 0)) * gsum;
    }
  });
}

Var pick(const Var& a, int r, int c) {
  if (r < 0 || r >= a->value.rows() || c < 0 || c >= a->value.cols()) {
    throw std::invalid_argument("pick: index out of range");
  }
  return make_node(Matrix::scalar(a->value(r, c)), {a}, [r, c](const Node& n) {
    n.inputs[0]->ensure_grad()(r, c) += n.grad(0, 0);
  });
}

Var weighted_sum(const std::vector<Var>& scalars, const std::vector<double>& weights) {
  if (scalars.size() != weights.size() || scalars.empty()) {
    throw std::invalid_argument("weighted_sum: size mismatch or empty");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    if (scalars[i]->value.rows() != 1 || scalars[i]->value.cols() != 1) {
      throw std::invalid_argument("weighted_sum: inputs must be 1 x 1");
    }
    s += weights[i] * scalars[i]->value(0, 0);
  }
  return make_node(Matrix::scalar(s), scalars, [weights](const Node& n) {
    for (std::size_t i = 0; i < n.inputs.size(); ++i) {
      if (n.inputs[i]->requires_grad) {
        n.inputs[i]->ensure_grad()(0, 0) += weights[i] * n.grad(0, 0);
      }
    }
  });
}

}  // namespace giph::nn
