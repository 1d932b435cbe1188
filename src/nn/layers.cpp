#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/checked_file.hpp"

namespace giph::nn {

Matrix xavier_uniform(int in, int out, std::mt19937_64& rng) {
  const double limit = std::sqrt(6.0 / (in + out));
  std::uniform_real_distribution<double> d(-limit, limit);
  Matrix m(in, out);
  for (int i = 0; i < in; ++i) {
    for (int j = 0; j < out; ++j) m(i, j) = d(rng);
  }
  return m;
}

Var ParamRegistry::create(const std::string& name, Matrix init) {
  for (const std::string& n : names_) {
    if (n == name) throw std::invalid_argument("ParamRegistry: duplicate name " + name);
  }
  names_.push_back(name);
  params_.push_back(parameter(std::move(init)));
  return params_.back();
}

std::size_t ParamRegistry::num_scalars() const {
  std::size_t n = 0;
  for (const Var& p : params_) n += p->value.size();
  return n;
}

void ParamRegistry::zero_grad() {
  for (const Var& p : params_) p->grad = Matrix();
}

void ParamRegistry::save(std::ostream& out) const {
  out.precision(17);
  out << "giph-params v1\n" << params_.size() << "\n";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Matrix& m = params_[i]->value;
    out << names_[i] << " " << m.rows() << " " << m.cols() << "\n";
    for (int r = 0; r < m.rows(); ++r) {
      for (int c = 0; c < m.cols(); ++c) {
        out << m(r, c) << (c + 1 == m.cols() ? '\n' : ' ');
      }
    }
  }
  if (!out) throw std::runtime_error("ParamRegistry::save: write failed");
}

void ParamRegistry::save(const std::string& path) const {
  // Checksum + length framing with a write-to-temp + atomic-rename commit:
  // a crash mid-save never tears the previous file, and a torn or corrupted
  // copy fails loudly at load instead of silently feeding garbage weights.
  std::ostringstream payload;
  save(payload);
  util::write_checked_file(path, "giph-params", payload.str());
}

void ParamRegistry::load(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  if (magic != "giph-params" || version != "v1") {
    throw std::runtime_error("ParamRegistry::load: bad header");
  }
  std::size_t count = 0;
  in >> count;
  if (count != params_.size()) {
    throw std::runtime_error("ParamRegistry::load: parameter count mismatch");
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::string name;
    int rows = 0, cols = 0;
    in >> name >> rows >> cols;
    if (name != names_[i] || rows != params_[i]->value.rows() ||
        cols != params_[i]->value.cols()) {
      throw std::runtime_error("ParamRegistry::load: mismatch at " + name);
    }
    Matrix& m = params_[i]->value;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) in >> m(r, c);
    }
  }
  if (!in) throw std::runtime_error("ParamRegistry::load: truncated file");
}

void ParamRegistry::load(const std::string& path) {
  // read_checked_file validates length + checksum when the frame is present
  // and passes legacy unframed files through untouched.
  std::istringstream in(util::read_checked_file(path, "giph-params"));
  load(in);
}

Var apply_activation(const Var& x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return relu(x);
    case Activation::kTanh: return tanh_act(x);
    case Activation::kSigmoid: return sigmoid_act(x);
  }
  throw std::logic_error("apply_activation: unknown activation");
}

double apply_activation(double x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return std::max(0.0, x);
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  throw std::logic_error("apply_activation: unknown activation");
}

Linear::Linear(ParamRegistry& reg, const std::string& name, int in, int out,
               std::mt19937_64& rng) {
  W_ = reg.create(name + ".W", xavier_uniform(in, out, rng));
  b_ = reg.create(name + ".b", Matrix::zeros(1, out));
}

namespace {

/// Runs body(in, out) at Fixed widths for the layers of the MLPs GiPH ships
/// with: the pre-embeddings 4 -> 4 -> 5 (GiPH) and 8 -> 8 -> 5 (GiPH-NE) and
/// the score head 10 -> 16 -> 1. Any other layer runs the same body at int
/// widths.
template <class Body>
void at_mlp_widths(int in, int out, Body&& body) {
  if (in == 4 && out == 4) return body(Fixed<4>{}, Fixed<4>{});
  if (in == 4 && out == 5) return body(Fixed<4>{}, Fixed<5>{});
  if (in == 8 && out == 8) return body(Fixed<8>{}, Fixed<8>{});
  if (in == 8 && out == 5) return body(Fixed<8>{}, Fixed<5>{});
  if (in == 10 && out == 16) return body(Fixed<10>{}, Fixed<16>{});
  if (in == 16 && out == 1) return body(Fixed<16>{}, Fixed<1>{});
  body(in, out);
}

}  // namespace

void Linear::forward_rows(const double* x, const int* rows, int n, Activation act,
                          double* y) const {
  at_mlp_widths(in_dim(), out_dim(), [&](auto in, auto out) {
    for (int i = 0; i < n; ++i) {
      const std::size_t r = rows != nullptr ? rows[i] : i;
      forward_row(in, out, x + r * in, y + static_cast<std::size_t>(i) * out);
    }
  });
  // The activation, its kind picked once (relu is apply_activation's max).
  const std::size_t size = static_cast<std::size_t>(n) * out_dim();
  if (act == Activation::kRelu) {
    for (std::size_t i = 0; i < size; ++i) y[i] = std::max(0.0, y[i]);
  } else if (act != Activation::kNone) {
    for (std::size_t i = 0; i < size; ++i) y[i] = apply_activation(y[i], act);
  }
}

MLP::MLP(ParamRegistry& reg, const std::string& name, const std::vector<int>& dims,
         std::mt19937_64& rng, Activation hidden, Activation output)
    : hidden_(hidden), output_(output) {
  if (dims.size() < 2) throw std::invalid_argument("MLP: need at least in/out dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(reg, name + ".l" + std::to_string(i), dims[i], dims[i + 1], rng);
  }
  out_dim_ = dims.back();
}

Var MLP::operator()(Var x) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i](x);
    x = apply_activation(x, i + 1 == layers_.size() ? output_ : hidden_);
  }
  return x;
}

void MLP::forward_rows(const double* x, const int* rows, int n, double* y,
                       std::vector<double>& scratch) const {
  // Hidden layers ping-pong between the two halves of `scratch`.
  int width = 0;
  for (const Linear& l : layers_) width = std::max(width, l.out_dim());
  const std::size_t half = static_cast<std::size_t>(n) * width;
  if (scratch.size() < 2 * half) scratch.resize(2 * half);
  const double* in = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    double* out = last ? y : scratch.data() + (i % 2) * half;
    layers_[i].forward_rows(in, i == 0 ? rows : nullptr, n, last ? output_ : hidden_,
                            out);
    in = out;
  }
}

LSTMCell::LSTMCell(ParamRegistry& reg, const std::string& name, int input_dim,
                   int hidden_dim, std::mt19937_64& rng)
    : hidden_(hidden_dim) {
  w_ih_ = reg.create(name + ".w_ih", xavier_uniform(input_dim, 4 * hidden_dim, rng));
  w_hh_ = reg.create(name + ".w_hh", xavier_uniform(hidden_dim, 4 * hidden_dim, rng));
  Matrix b = Matrix::zeros(1, 4 * hidden_dim);
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (int j = hidden_dim; j < 2 * hidden_dim; ++j) b(0, j) = 1.0;
  b_ = reg.create(name + ".b", std::move(b));
}

LSTMCell::State LSTMCell::initial_state() const {
  return State{constant(Matrix::zeros(1, hidden_)), constant(Matrix::zeros(1, hidden_))};
}

LSTMCell::State LSTMCell::operator()(const Var& x, const State& s) const {
  const Var gates = add_rowvec(add(matmul(x, w_ih_), matmul(s.h, w_hh_)), b_);
  const Var i = sigmoid_act(slice_cols(gates, 0, hidden_));
  const Var f = sigmoid_act(slice_cols(gates, hidden_, 2 * hidden_));
  const Var g = tanh_act(slice_cols(gates, 2 * hidden_, 3 * hidden_));
  const Var o = sigmoid_act(slice_cols(gates, 3 * hidden_, 4 * hidden_));
  const Var c = add(mul(f, s.c), mul(i, g));
  const Var h = mul(o, tanh_act(c));
  return State{h, c};
}

}  // namespace giph::nn
