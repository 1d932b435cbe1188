#pragma once

#include <iosfwd>
#include <random>
#include <string>
#include <vector>

#include "nn/autograd.hpp"

namespace giph::nn {

/// Xavier/Glorot uniform initialization for an (in x out) weight matrix.
Matrix xavier_uniform(int in, int out, std::mt19937_64& rng);

/// Owns a model's trainable parameters by name; provides save/load and
/// gradient clearing. Layers register their parameters here at construction.
class ParamRegistry {
 public:
  /// Creates and registers a parameter. Names must be unique.
  Var create(const std::string& name, Matrix init);

  const std::vector<Var>& params() const noexcept { return params_; }
  const std::vector<std::string>& names() const noexcept { return names_; }

  /// Total scalar parameter count.
  std::size_t num_scalars() const;

  void zero_grad();

  /// Plain-text serialization (name, shape, row-major values per parameter).
  /// The file form wraps the payload in util::write_checked_file's checksum +
  /// length frame and commits via write-to-temp + atomic rename, so torn or
  /// corrupted parameter files are detected at load (legacy unframed files
  /// remain loadable). The stream form writes/reads the raw payload — used by
  /// callers that embed parameters in a larger framed file (checkpoints,
  /// policy snapshots).
  void save(const std::string& path) const;
  void save(std::ostream& out) const;
  /// Loads values into already-registered parameters; shapes must match.
  void load(const std::string& path);
  void load(std::istream& in);

 private:
  std::vector<std::string> names_;
  std::vector<Var> params_;
};

enum class Activation { kNone, kRelu, kTanh, kSigmoid };

Var apply_activation(const Var& x, Activation act);
/// The same activation on one value, as the tape op computes it.
double apply_activation(double x, Activation act);

/// Affine layer y = x W + b with x of shape (n x in).
class Linear {
 public:
  Linear() = default;
  Linear(ParamRegistry& reg, const std::string& name, int in, int out,
         std::mt19937_64& rng);

  Var operator()(const Var& x) const { return add_rowvec(matmul(x, W_), b_); }

  /// Forward-only y = x W + b for one row of in_dim() values: matmul's
  /// accumulation from zero, then add_rowvec's bias add, so y is bitwise the
  /// matching row of operator()(x), without a tape node.
  void forward_row(const double* x, double* y) const;

  const Var& weight() const { return W_; }
  const Var& bias() const { return b_; }
  int in_dim() const { return W_->value.rows(); }
  int out_dim() const { return W_->value.cols(); }

 private:
  Var W_, b_;
};

/// Feed-forward network with the given layer dims, hidden activation applied
/// between layers and an optional output activation.
class MLP {
 public:
  MLP() = default;
  MLP(ParamRegistry& reg, const std::string& name, const std::vector<int>& dims,
      std::mt19937_64& rng, Activation hidden = Activation::kRelu,
      Activation output = Activation::kNone);

  Var operator()(Var x) const;

  /// Forward-only pass of one row (see Linear::forward_row): y gets
  /// output_dim() values, bitwise the matching row of operator()(x).
  /// `scratch` holds the hidden activations; it grows on first use only.
  void forward_row(const double* x, double* y, std::vector<double>& scratch) const;

  int output_dim() const { return out_dim_; }

 private:
  std::vector<Linear> layers_;
  Activation hidden_ = Activation::kRelu;
  Activation output_ = Activation::kNone;
  int out_dim_ = 0;
};

/// Single LSTM cell with gate layout [input, forget, cell, output].
class LSTMCell {
 public:
  LSTMCell() = default;
  LSTMCell(ParamRegistry& reg, const std::string& name, int input_dim, int hidden_dim,
           std::mt19937_64& rng);

  struct State {
    Var h;  ///< 1 x hidden
    Var c;  ///< 1 x hidden
  };

  /// Zero initial state.
  State initial_state() const;

  /// One step: x is 1 x input_dim.
  State operator()(const Var& x, const State& s) const;

  int hidden_dim() const { return hidden_; }

 private:
  Var w_ih_, w_hh_, b_;
  int hidden_ = 0;
};

}  // namespace giph::nn
