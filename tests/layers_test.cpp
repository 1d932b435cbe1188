#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "nn/optimizer.hpp"

namespace giph::nn {
namespace {

TEST(ParamRegistry, CreateAndLookup) {
  ParamRegistry reg;
  const Var p = reg.create("w", Matrix(2, 3, 1.0));
  EXPECT_EQ(reg.params().size(), 1u);
  EXPECT_EQ(reg.names()[0], "w");
  EXPECT_EQ(reg.num_scalars(), 6u);
  EXPECT_TRUE(p->requires_grad);
  EXPECT_THROW(reg.create("w", Matrix(1, 1)), std::invalid_argument);
}

TEST(ParamRegistry, ZeroGradClears) {
  ParamRegistry reg;
  const Var p = reg.create("w", Matrix::scalar(1.0));
  backward(scale(p, 3.0));
  EXPECT_EQ(p->grad(0, 0), 3.0);
  reg.zero_grad();
  EXPECT_EQ(p->grad.size(), 0u);
}

TEST(ParamRegistry, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "giph_params_test.txt").string();
  std::mt19937_64 rng(1);
  ParamRegistry a;
  Linear la(a, "lin", 3, 4, rng);
  const Matrix w_before = la.weight()->value;

  a.save(path);

  std::mt19937_64 rng2(99);  // different init
  ParamRegistry b;
  Linear lb(b, "lin", 3, 4, rng2);
  EXPECT_GT(max_abs_diff(lb.weight()->value, w_before), 0.0);
  b.load(path);
  EXPECT_TRUE(bitwise_equal(lb.weight()->value, w_before));
  std::remove(path.c_str());
}

TEST(ParamRegistry, LoadRejectsMismatch) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "giph_params_test2.txt").string();
  std::mt19937_64 rng(1);
  ParamRegistry a;
  a.create("x", Matrix(2, 2));
  a.save(path);
  ParamRegistry b;
  b.create("y", Matrix(2, 2));
  EXPECT_THROW(b.load(path), std::runtime_error);
  ParamRegistry c;
  c.create("x", Matrix(3, 2));
  EXPECT_THROW(c.load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(XavierInit, BoundsAndVariation) {
  std::mt19937_64 rng(2);
  const Matrix m = xavier_uniform(10, 10, rng);
  const double limit = std::sqrt(6.0 / 20.0);
  bool nonzero = false;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      EXPECT_LE(std::abs(m(i, j)), limit);
      if (m(i, j) != 0.0) nonzero = true;
    }
  }
  EXPECT_TRUE(nonzero);
}

TEST(Linear, ForwardMatchesManual) {
  std::mt19937_64 rng(3);
  ParamRegistry reg;
  Linear lin(reg, "l", 2, 3, rng);
  const Matrix x = Matrix::from_row({1.0, -2.0});
  const Var out = lin(constant(x));
  const Matrix expected =
      matmul(x, lin.weight()->value) + lin.bias()->value;
  EXPECT_LT(max_abs_diff(out->value, expected), 1e-12);
}

TEST(Linear, BiasStartsAtZero) {
  std::mt19937_64 rng(4);
  ParamRegistry reg;
  Linear lin(reg, "l", 2, 3, rng);
  for (int j = 0; j < 3; ++j) EXPECT_EQ(lin.bias()->value(0, j), 0.0);
}

TEST(MLP, ShapesAndActivation) {
  std::mt19937_64 rng(5);
  ParamRegistry reg;
  const MLP mlp(reg, "m", {4, 8, 1}, rng, Activation::kRelu, Activation::kNone);
  EXPECT_EQ(mlp.output_dim(), 1);
  const Var out = mlp(constant(Matrix(3, 4, 0.5)));
  EXPECT_EQ(out->value.rows(), 3);
  EXPECT_EQ(out->value.cols(), 1);
  // 2 layers x (W, b).
  EXPECT_EQ(reg.params().size(), 4u);
}

TEST(MLP, RejectsTooFewDims) {
  std::mt19937_64 rng(6);
  ParamRegistry reg;
  EXPECT_THROW(MLP(reg, "m", {4}, rng), std::invalid_argument);
}

TEST(MLP, GradientsReachAllParameters) {
  std::mt19937_64 rng(7);
  ParamRegistry reg;
  const MLP mlp(reg, "m", {3, 5, 2}, rng, Activation::kTanh, Activation::kNone);
  backward(sum_all(mlp(constant(Matrix(2, 3, 0.7)))));
  for (const Var& p : reg.params()) {
    EXPECT_GT(p->grad.size(), 0u);
  }
}

TEST(ApplyActivation, AllKinds) {
  const Var x = constant(Matrix::from_row({-1.0, 2.0}));
  EXPECT_EQ(apply_activation(x, Activation::kNone).get(), x.get());
  EXPECT_EQ(apply_activation(x, Activation::kRelu)->value(0, 0), 0.0);
  EXPECT_NEAR(apply_activation(x, Activation::kTanh)->value(0, 1), std::tanh(2.0),
              1e-12);
  EXPECT_NEAR(apply_activation(x, Activation::kSigmoid)->value(0, 0),
              1.0 / (1.0 + std::exp(1.0)), 1e-12);
}

TEST(LSTMCell, ShapesAndStateEvolution) {
  std::mt19937_64 rng(8);
  ParamRegistry reg;
  const LSTMCell cell(reg, "lstm", 3, 5, rng);
  EXPECT_EQ(cell.hidden_dim(), 5);
  LSTMCell::State s = cell.initial_state();
  EXPECT_EQ(s.h->value.cols(), 5);
  for (int j = 0; j < 5; ++j) EXPECT_EQ(s.h->value(0, j), 0.0);

  const Var x = constant(Matrix(1, 3, 1.0));
  const LSTMCell::State s1 = cell(x, s);
  EXPECT_EQ(s1.h->value.rows(), 1);
  EXPECT_EQ(s1.h->value.cols(), 5);
  // State actually changed.
  EXPECT_GT(max_abs_diff(s1.h->value, s.h->value), 0.0);
  // Hidden values are bounded by tanh.
  for (int j = 0; j < 5; ++j) EXPECT_LE(std::abs(s1.h->value(0, j)), 1.0);
}

TEST(LSTMCell, GradientsFlowThroughTime) {
  std::mt19937_64 rng(9);
  ParamRegistry reg;
  const LSTMCell cell(reg, "lstm", 2, 4, rng);
  LSTMCell::State s = cell.initial_state();
  for (int t = 0; t < 3; ++t) s = cell(constant(Matrix(1, 2, 0.3 * (t + 1))), s);
  backward(sum_all(s.h));
  for (const Var& p : reg.params()) EXPECT_GT(p->grad.size(), 0u);
}

TEST(LSTMCell, NumericGradientCheckThroughOneStep) {
  std::mt19937_64 rng(11);
  ParamRegistry reg;
  const LSTMCell cell(reg, "lstm", 2, 3, rng);
  const Matrix x_val(1, 2, 0.4);

  auto loss_value = [&]() {
    const LSTMCell::State s = cell(constant(x_val), cell.initial_state());
    return sum_all(mul(s.h, s.h))->value(0, 0);
  };

  // Analytic gradients of sum(h^2) after one LSTM step.
  {
    const LSTMCell::State s = cell(constant(x_val), cell.initial_state());
    backward(sum_all(mul(s.h, s.h)));
  }
  const double h = 1e-6;
  for (const Var& p : reg.params()) {
    ASSERT_GT(p->grad.size(), 0u);
    // Spot-check a few elements per parameter.
    for (int i = 0; i < std::min(2, p->value.rows()); ++i) {
      for (int j = 0; j < std::min(3, p->value.cols()); ++j) {
        const double orig = p->value(i, j);
        p->value(i, j) = orig + h;
        const double up = loss_value();
        p->value(i, j) = orig - h;
        const double down = loss_value();
        p->value(i, j) = orig;
        EXPECT_NEAR(p->grad(i, j), (up - down) / (2 * h), 1e-5);
      }
    }
  }
}

TEST(LSTMCell, ForgetGateBiasInitializedToOne) {
  std::mt19937_64 rng(10);
  ParamRegistry reg;
  const LSTMCell cell(reg, "lstm", 2, 3, rng);
  const Var b = reg.params().back();  // lstm.b registered last
  for (int j = 0; j < 3; ++j) EXPECT_EQ(b->value(0, j), 0.0);        // input gate
  for (int j = 3; j < 6; ++j) EXPECT_EQ(b->value(0, j), 1.0);        // forget gate
  for (int j = 6; j < 12; ++j) EXPECT_EQ(b->value(0, j), 0.0);       // cell/output
}

}  // namespace
}  // namespace giph::nn
