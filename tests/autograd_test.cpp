#include "nn/autograd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace giph::nn {
namespace {

Matrix random_matrix(int r, int c, std::mt19937_64& rng, double lo = -1.0,
                     double hi = 1.0) {
  std::uniform_real_distribution<double> d(lo, hi);
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) m(i, j) = d(rng);
  }
  return m;
}

/// Central-difference gradient check: `build` constructs a scalar graph from
/// fresh parameter leaves each call. Verifies every analytic parameter
/// gradient against the numeric estimate.
void grad_check(const std::function<Var(const std::vector<Var>&)>& build,
                std::vector<Matrix> inits, double tol = 1e-6) {
  auto eval = [&](const std::vector<Matrix>& values) {
    std::vector<Var> params;
    params.reserve(values.size());
    for (const Matrix& v : values) params.push_back(parameter(v));
    return build(params);
  };

  // Analytic gradients.
  std::vector<Var> params;
  for (const Matrix& v : inits) params.push_back(parameter(v));
  const Var out = build(params);
  ASSERT_EQ(out->value.rows(), 1);
  ASSERT_EQ(out->value.cols(), 1);
  backward(out);

  const double h = 1e-6;
  for (std::size_t p = 0; p < inits.size(); ++p) {
    for (int i = 0; i < inits[p].rows(); ++i) {
      for (int j = 0; j < inits[p].cols(); ++j) {
        std::vector<Matrix> plus = inits, minus = inits;
        plus[p](i, j) += h;
        minus[p](i, j) -= h;
        const double numeric =
            (eval(plus)->value(0, 0) - eval(minus)->value(0, 0)) / (2 * h);
        const double analytic =
            params[p]->grad.size() > 0 ? params[p]->grad(i, j) : 0.0;
        EXPECT_NEAR(analytic, numeric, tol)
            << "param " << p << " element (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Autograd, MatmulGradient) {
  std::mt19937_64 rng(1);
  grad_check([](const std::vector<Var>& p) { return sum_all(matmul(p[0], p[1])); },
             {random_matrix(2, 3, rng), random_matrix(3, 4, rng)});
}

TEST(Autograd, AddSubMulGradient) {
  std::mt19937_64 rng(2);
  grad_check(
      [](const std::vector<Var>& p) {
        return sum_all(mul(add(p[0], p[1]), sub(p[0], p[2])));
      },
      {random_matrix(2, 2, rng), random_matrix(2, 2, rng), random_matrix(2, 2, rng)});
}

TEST(Autograd, AddRowvecGradient) {
  std::mt19937_64 rng(3);
  grad_check([](const std::vector<Var>& p) { return sum_all(add_rowvec(p[0], p[1])); },
             {random_matrix(3, 2, rng), random_matrix(1, 2, rng)});
}

TEST(Autograd, ScaleGradient) {
  std::mt19937_64 rng(4);
  grad_check([](const std::vector<Var>& p) { return sum_all(scale(p[0], -2.5)); },
             {random_matrix(2, 3, rng)});
}

TEST(Autograd, ReluGradient) {
  std::mt19937_64 rng(5);
  // Keep values away from the kink at 0.
  Matrix m = random_matrix(2, 3, rng);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (std::abs(m(i, j)) < 0.1) m(i, j) = 0.5;
    }
  }
  grad_check([](const std::vector<Var>& p) { return sum_all(relu(p[0])); }, {m});
}

TEST(Autograd, TanhSigmoidGradient) {
  std::mt19937_64 rng(6);
  grad_check(
      [](const std::vector<Var>& p) {
        return sum_all(mul(tanh_act(p[0]), sigmoid_act(p[0])));
      },
      {random_matrix(2, 2, rng)});
}

TEST(Autograd, ConcatColsRowsGradient) {
  std::mt19937_64 rng(7);
  grad_check(
      [](const std::vector<Var>& p) {
        const Var cc = concat_cols({p[0], p[1]});
        const Var rr = concat_rows({cc, cc});
        return sum_all(mul(rr, rr));
      },
      {random_matrix(2, 2, rng), random_matrix(2, 3, rng)});
}

TEST(Autograd, SliceGradient) {
  std::mt19937_64 rng(8);
  grad_check(
      [](const std::vector<Var>& p) {
        return sum_all(mul(slice_cols(p[0], 1, 3), slice_rows(p[1], 0, 1)));
      },
      {random_matrix(1, 4, rng), random_matrix(3, 2, rng)});
}

TEST(Autograd, GatherRowsGradient) {
  std::mt19937_64 rng(9);
  grad_check(
      [](const std::vector<Var>& p) {
        // Repeated index 1 checks gradient accumulation on gathered rows.
        return sum_all(mul(gather_rows(p[0], {1, 1, 2}), gather_rows(p[0], {0, 2, 2})));
      },
      {random_matrix(3, 2, rng)});
}

TEST(Autograd, SumMeanRowsGradient) {
  std::mt19937_64 rng(10);
  grad_check(
      [](const std::vector<Var>& p) {
        return sum_all(mul(sum_rows(p[0]), mean_rows(p[0])));
      },
      {random_matrix(3, 3, rng)});
}

TEST(Autograd, SegmentMeanRowsMatchesPerGroupMeanRows) {
  std::mt19937_64 rng(23);
  const Matrix m = random_matrix(6, 3, rng);
  const Var a = constant(m);
  // Groups of size 2, 0, 1, 3 — covers the empty-group zero row.
  const Var seg = segment_mean_rows(a, {0, 2, 2, 3, 6});
  ASSERT_EQ(seg->value.rows(), 4);
  const Var g0 = mean_rows(slice_rows(a, 0, 2));
  const Var g2 = mean_rows(slice_rows(a, 2, 3));
  const Var g3 = mean_rows(slice_rows(a, 3, 6));
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(seg->value(0, j), g0->value(0, j));
    EXPECT_EQ(seg->value(1, j), 0.0);
    EXPECT_EQ(seg->value(2, j), g2->value(0, j));
    EXPECT_EQ(seg->value(3, j), g3->value(0, j));
  }
}

TEST(Autograd, SegmentMeanRowsIdentitySinglePreservesSignedZero) {
  Matrix m(2, 2);
  m(0, 0) = -0.0;
  m(0, 1) = 1.5;
  m(1, 0) = -0.0;
  m(1, 1) = 2.5;
  const Var a = constant(m);
  // identity_single copies lone rows raw: -0.0 survives, where the
  // accumulate-and-scale path would produce +0.0.
  const Var ident = segment_mean_rows(a, {0, 1, 2}, /*identity_single=*/true);
  const Var meaned = segment_mean_rows(a, {0, 1, 2}, /*identity_single=*/false);
  EXPECT_TRUE(std::signbit(ident->value(0, 0)));
  EXPECT_TRUE(std::signbit(ident->value(1, 0)));
  EXPECT_FALSE(std::signbit(meaned->value(0, 0)));
  EXPECT_EQ(ident->value(0, 1), 1.5);
  EXPECT_EQ(meaned->value(1, 1), 2.5);
}

TEST(Autograd, SegmentMeanRowsGradient) {
  std::mt19937_64 rng(24);
  grad_check(
      [](const std::vector<Var>& p) {
        // Mixed group sizes (2, 1, 3) exercise the per-group 1/k scaling.
        const Var seg = segment_mean_rows(p[0], {0, 2, 3, 6});
        return sum_all(mul(seg, p[1]));
      },
      {random_matrix(6, 2, rng), random_matrix(3, 2, rng)});
}

TEST(Autograd, SegmentMeanRowsIdentitySingleGradient) {
  std::mt19937_64 rng(25);
  grad_check(
      [](const std::vector<Var>& p) {
        // Size-1 groups pass gradients through unscaled under identity_single.
        const Var seg = segment_mean_rows(p[0], {0, 1, 3, 4}, true);
        return sum_all(mul(seg, p[1]));
      },
      {random_matrix(4, 2, rng), random_matrix(3, 2, rng)});
}

TEST(Autograd, SegmentMeanRowsRejectsBadOffsets) {
  const Var a = constant(Matrix(4, 2));
  EXPECT_THROW(segment_mean_rows(a, {0, 2}), std::invalid_argument);       // back != rows
  EXPECT_THROW(segment_mean_rows(a, {1, 4}), std::invalid_argument);      // front != 0
  EXPECT_THROW(segment_mean_rows(a, {0, 3, 2, 4}), std::invalid_argument);  // descending
  EXPECT_THROW(segment_mean_rows(a, {0}), std::invalid_argument);         // too short
}

TEST(Autograd, SoftmaxColGradient) {
  std::mt19937_64 rng(11);
  grad_check(
      [](const std::vector<Var>& p) {
        return sum_all(mul(softmax_col(p[0]), p[1]));
      },
      {random_matrix(4, 1, rng), random_matrix(4, 1, rng)});
}

TEST(Autograd, LogSoftmaxColGradient) {
  std::mt19937_64 rng(12);
  grad_check(
      [](const std::vector<Var>& p) { return pick(log_softmax_col(p[0]), 2, 0); },
      {random_matrix(5, 1, rng, -3.0, 3.0)});
}

TEST(Autograd, TransposeGradient) {
  std::mt19937_64 rng(13);
  grad_check(
      [](const std::vector<Var>& p) {
        return sum_all(matmul(transpose_of(p[0]), p[1]));
      },
      {random_matrix(3, 2, rng), random_matrix(3, 4, rng)});
}

TEST(Autograd, WeightedSumGradient) {
  std::mt19937_64 rng(14);
  grad_check(
      [](const std::vector<Var>& p) {
        const std::vector<Var> scalars = {pick(p[0], 0, 0), pick(p[0], 1, 1),
                                          sum_all(p[0])};
        return weighted_sum(scalars, {0.5, -2.0, 3.0});
      },
      {random_matrix(2, 2, rng)});
}

TEST(Autograd, DeepCompositeGradient) {
  std::mt19937_64 rng(15);
  grad_check(
      [](const std::vector<Var>& p) {
        Var h = tanh_act(matmul(p[0], p[1]));
        h = add_rowvec(h, p[2]);
        h = relu(add(h, scale(h, 0.5)));
        return pick(log_softmax_col(transpose_of(sum_rows(h))), 1, 0);
      },
      {random_matrix(3, 4, rng), random_matrix(4, 3, rng), random_matrix(1, 3, rng)},
      1e-5);
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  const Var c = constant(Matrix::scalar(2.0));
  const Var p = parameter(Matrix::scalar(3.0));
  const Var out = mul(c, p);
  backward(out);
  EXPECT_EQ(c->grad.size(), 0u);
  EXPECT_DOUBLE_EQ(p->grad(0, 0), 2.0);
}

TEST(Autograd, GradientsAccumulateAcrossBackwardCalls) {
  const Var p = parameter(Matrix::scalar(3.0));
  backward(scale(p, 2.0));
  backward(scale(p, 5.0));
  EXPECT_DOUBLE_EQ(p->grad(0, 0), 7.0);
}

TEST(Autograd, DiamondReuseAccumulates) {
  const Var p = parameter(Matrix::scalar(4.0));
  const Var out = mul(p, p);  // d/dp p^2 = 2p
  backward(out);
  EXPECT_DOUBLE_EQ(p->grad(0, 0), 8.0);
}

TEST(Autograd, BackwardOnConstantGraphIsNoop) {
  const Var c = constant(Matrix::scalar(1.0));
  EXPECT_NO_THROW(backward(scale(c, 2.0)));
}

TEST(Autograd, GraphSizeCountsReachableNodes) {
  const Var a = parameter(Matrix::scalar(1.0));
  const Var b = parameter(Matrix::scalar(2.0));
  const Var out = mul(add(a, b), a);
  EXPECT_EQ(graph_size(out), 4u);  // a, b, add, mul
}

TEST(Autograd, ShapeMismatchThrows) {
  const Var a = parameter(Matrix(2, 2));
  const Var b = parameter(Matrix(2, 3));
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(mul(a, b), std::invalid_argument);
  EXPECT_THROW(softmax_col(b), std::invalid_argument);
  EXPECT_THROW(slice_cols(a, 1, 4), std::invalid_argument);
  EXPECT_THROW(gather_rows(a, {5}), std::invalid_argument);
  EXPECT_THROW(pick(a, 2, 0), std::invalid_argument);
}

// ---- register-resident kernels ---------------------------------------------
// matmul (through accumulate_row), matmul_tn and matmul_nt keep a row of
// partial sums in registers at the layer widths 1, 4, 5, 9, 10 and 16 and run
// a generic loop at any other width. Either way every output must be the
// plain loop's bytes: the same products, added in the same order from the
// same start, skipping the same zero inputs.

/// Random entries with exact zeros, negative zeros and subnormals mixed in.
Matrix kernel_input(int r, int c, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  std::uniform_int_distribution<int> kind(0, 6);
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) {
      const double v = d(rng);
      const int k = kind(rng);
      m(i, j) = k == 0 ? 0.0 : k == 1 ? -0.0 : k == 2 ? v * 1e-310 : v;
    }
  }
  return m;
}

/// accumulate_row as a plain loop: acc[j] += x[k] * w(k0 + k, j), ascending k,
/// zero inputs skipped.
void plain_accumulate_row(const double* x, int n, const Matrix& w, int k0, double* acc) {
  for (int j = 0; j < w.cols(); ++j) {
    for (int k = 0; k < n; ++k) {
      if (x[k] == 0.0) continue;
      acc[j] += x[k] * w(k0 + k, j);
    }
  }
}

Matrix plain_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    plain_accumulate_row(a.data() + static_cast<std::size_t>(i) * a.cols(), a.cols(), b,
                         0, c.data() + static_cast<std::size_t>(i) * c.cols());
  }
  return c;
}

Matrix plain_matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (int i = 0; i < a.cols(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      for (int k = 0; k < a.rows(); ++k) {
        if (a(k, i) == 0.0) continue;
        c(i, j) += a(k, i) * b(k, j);
      }
    }
  }
  return c;
}

Matrix plain_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      for (int k = 0; k < a.cols(); ++k) c(i, j) += a(i, k) * b(j, k);
    }
  }
  return c;
}

TEST(Kernels, EveryWidthMatchesPlainLoopBitwise) {
  std::mt19937_64 rng(20260806);
  // The layer widths, then widths that take the generic loop.
  for (const int width : {1, 4, 5, 9, 10, 16, 2, 3, 7, 17}) {
    for (const int inner : {1, 4, 9, 13}) {
      for (const int rows : {1, 3, 7}) {
        SCOPED_TRACE("width " + std::to_string(width) + " inner " +
                     std::to_string(inner) + " rows " + std::to_string(rows));
        const Matrix a = kernel_input(rows, inner, rng);
        const Matrix w = kernel_input(inner, width, rng);
        EXPECT_TRUE(bitwise_equal(matmul(a, w), plain_matmul(a, w)));

        const Matrix at = kernel_input(inner, rows, rng);
        EXPECT_TRUE(bitwise_equal(matmul_tn(at, w), plain_matmul_tn(at, w)));

        const Matrix wn = kernel_input(width, inner, rng);
        EXPECT_TRUE(bitwise_equal(matmul_nt(a, wn), plain_matmul_nt(a, wn)));

        // accumulate_row resumes partial sums (negative zeros among them)
        // part-way down w.
        const Matrix w2 = kernel_input(inner + 2, width, rng);
        const Matrix start = kernel_input(1, width, rng);
        Matrix got = start, want = start;
        accumulate_row(a.data(), inner, w2, 2, got.data());
        plain_accumulate_row(a.data(), inner, w2, 2, want.data());
        EXPECT_TRUE(bitwise_equal(got, want));
      }
    }
  }
}

TEST(Kernels, ZeroInputSkipsInfiniteWeight) {
  const double inf = std::numeric_limits<double>::infinity();
  const Matrix x = Matrix::from_row({1.5, 0.0, -0.0, -2.0});
  for (const int width : {1, 4, 5, 9, 10, 16, 3}) {
    SCOPED_TRACE("width " + std::to_string(width));
    // Rows 1 and 2 of w meet the zero inputs; 0 * inf would be NaN.
    Matrix w(4, width, 0.25);
    for (int j = 0; j < width; ++j) {
      w(1, j) = inf;
      w(2, j) = -inf;
    }
    const Matrix y = matmul(x, w);
    const Matrix tn = matmul_tn(transpose(x), w);
    std::vector<double> acc(width, 0.0);
    accumulate_row(x.data(), 4, w, 0, acc.data());
    for (int j = 0; j < width; ++j) {
      EXPECT_EQ(y(0, j), -0.125);
      EXPECT_EQ(tn(0, j), -0.125);
      EXPECT_EQ(acc[j], -0.125);
    }
  }
}

}  // namespace
}  // namespace giph::nn
