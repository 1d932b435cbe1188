#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace giph::nn {

void accumulate_row(const double* x, int n, const Matrix& w, int k0, double* acc) {
  assert(k0 >= 0 && k0 + n <= w.rows());
  const int cols = w.cols();
  for (int k = 0; k < n; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    const double* wk = w.data() + static_cast<std::size_t>(k0 + k) * cols;
    for (int j = 0; j < cols; ++j) acc[j] += xk * wk[j];
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    accumulate_row(a.data() + static_cast<std::size_t>(i) * a.cols(), a.cols(), b, 0,
                   c.data() + static_cast<std::size_t>(i) * c.cols());
  }
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  for (int k = 0; k < a.rows(); ++k) {
    for (int i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aki * b(k, j);
    }
  }
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (int k = 0; k < a.cols(); ++k) s += a(i, k) * b(j, k);
      c(i, j) = s;
    }
  }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c += b;
  return c;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c -= b;
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c = a;
  for (int i = 0; i < c.rows(); ++i) {
    for (int j = 0; j < c.cols(); ++j) c(i, j) *= b(i, j);
  }
  return c;
}

Matrix operator*(const Matrix& a, double s) {
  Matrix c = a;
  c *= s;
  return c;
}

void log_softmax(const double* x, int k, double* out) {
  double mx = x[0];
  for (int i = 1; i < k; ++i) mx = std::max(mx, x[i]);
  double z = 0.0;
  for (int i = 0; i < k; ++i) z += std::exp(x[i] - mx);
  const double lse = mx + std::log(z);
  for (int i = 0; i < k; ++i) out[i] = x[i] - lse;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = a.data()[i];
    const double y = b.data()[i];
    if (x == y) continue;
    const double d = std::abs(x - y);
    if (std::isnan(d)) return d;
    m = std::max(m, d);
  }
  return m;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) return false;
  return a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace giph::nn
