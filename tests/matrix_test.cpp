#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace giph::nn {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_EQ(m(0, 1), -2.0);
}

TEST(Matrix, Factories) {
  const Matrix z = Matrix::zeros(2, 2);
  EXPECT_EQ(z(0, 0), 0.0);
  const Matrix r = Matrix::from_row({1, 2, 3});
  EXPECT_EQ(r.rows(), 1);
  EXPECT_EQ(r.cols(), 3);
  EXPECT_EQ(r(0, 2), 3.0);
  const Matrix c = Matrix::from_col({4, 5});
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c(1, 0), 5.0);
  EXPECT_EQ(Matrix::scalar(7.0)(0, 0), 7.0);
}

TEST(Matrix, Matmul) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int k = 1;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) a(i, j) = k++;
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) b(i, j) = k++;
  }
  const Matrix c = matmul(a, b);
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]]
  EXPECT_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_EQ(c(0, 1), 1 * 8 + 2 * 10 + 3 * 12);
  EXPECT_EQ(c(1, 0), 4 * 7 + 5 * 9 + 6 * 11);
  EXPECT_EQ(c(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
}

TEST(Matrix, MatmulVariantsMatchExplicitTranspose) {
  Matrix a(3, 2), b(3, 4), c(5, 2);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) a(i, j) = i * 2 + j + 1;
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) b(i, j) = i - j;
  }
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 2; ++j) c(i, j) = i * j + 1;
  }
  EXPECT_TRUE(bitwise_equal(matmul_tn(a, b), matmul(transpose(a), b)));
  EXPECT_TRUE(bitwise_equal(matmul_nt(a, c), matmul(a, transpose(c))));
}

TEST(Matrix, MaxAbsDiffPropagatesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(max_abs_diff(Matrix::from_row({nan}), Matrix::from_row({1.0}))));
  EXPECT_TRUE(std::isnan(max_abs_diff(Matrix::from_row({1.0}), Matrix::from_row({nan}))));
  EXPECT_TRUE(std::isnan(
      max_abs_diff(Matrix::from_row({5.0, nan}), Matrix::from_row({1.0, nan}))));
  EXPECT_EQ(max_abs_diff(Matrix::from_row({inf, -2.0}), Matrix::from_row({inf, 1.0})),
            3.0);
  EXPECT_EQ(max_abs_diff(Matrix::from_row({-0.0}), Matrix::from_row({0.0})), 0.0);
}

TEST(Matrix, BitwiseEqualSeesSignOfZeroAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(
      bitwise_equal(Matrix::from_row({1.0, -0.0}), Matrix::from_row({1.0, -0.0})));
  EXPECT_FALSE(bitwise_equal(Matrix::from_row({-0.0}), Matrix::from_row({0.0})));
  EXPECT_FALSE(bitwise_equal(Matrix::from_row({nan}), Matrix::from_row({1.0})));
  EXPECT_TRUE(bitwise_equal(Matrix::from_row({nan}), Matrix::from_row({nan})));
  EXPECT_FALSE(bitwise_equal(Matrix(1, 2), Matrix(2, 1)));
  EXPECT_TRUE(bitwise_equal(Matrix(0, 3), Matrix(0, 3)));
}

TEST(Matrix, AccumulateRowResumesMatmulPartialSums) {
  Matrix w(5, 3);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) w(i, j) = 0.1 * (i + 1) - 0.37 * j;
  }
  const Matrix x = Matrix::from_row({0.3, 0.0, -1.7, 2.9, 0.0});
  const Matrix full = matmul(x, w);
  std::vector<double> acc(3, 0.0);
  accumulate_row(x.data(), 2, w, 0, acc.data());
  accumulate_row(x.data() + 2, 3, w, 2, acc.data());
  EXPECT_TRUE(bitwise_equal(full, Matrix::from_row(acc)));
}

TEST(Matrix, AssignReshapesAndFills) {
  Matrix m(4, 4, 2.0);
  m.assign(2, 3, 0.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_TRUE(bitwise_equal(m, Matrix(2, 3, 0.5)));
}

TEST(Matrix, ElementwiseOps) {
  const Matrix a = Matrix::from_row({1, 2, 3});
  const Matrix b = Matrix::from_row({4, 5, 6});
  EXPECT_EQ((a + b)(0, 1), 7.0);
  EXPECT_EQ((b - a)(0, 2), 3.0);
  EXPECT_EQ(hadamard(a, b)(0, 0), 4.0);
  EXPECT_EQ((a * 2.0)(0, 2), 6.0);
}

TEST(Matrix, InPlaceOps) {
  Matrix a = Matrix::from_row({1, 2});
  a += Matrix::from_row({3, 4});
  EXPECT_EQ(a(0, 1), 6.0);
  a -= Matrix::from_row({1, 1});
  EXPECT_EQ(a(0, 0), 3.0);
  a *= 0.5;
  EXPECT_EQ(a(0, 1), 2.5);
}

TEST(Matrix, MaxAbsDiff) {
  const Matrix a = Matrix::from_row({1, 2, 3});
  const Matrix b = Matrix::from_row({1, 2.5, 2});
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
}

}  // namespace
}  // namespace giph::nn
