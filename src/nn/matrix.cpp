#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace giph::nn {
namespace {

/// Returns body(std::integral_constant<int, C>{}) when `width` is one of the
/// widths the GiPH layers use (their input and output sizes), false for any
/// other width. At these widths the kernels below hold one output row's C
/// partial sums in registers. Each output still sums the same products in
/// the same ascending order from the same start, skipping the same zero
/// inputs, as the generic loop does, so the bytes are the same; only the
/// loop nest changes.
template <class Body>
bool at_layer_width(int width, Body&& body) {
  switch (width) {
    case 1: return body(std::integral_constant<int, 1>{});
    case 4: return body(std::integral_constant<int, 4>{});
    case 5: return body(std::integral_constant<int, 5>{});
    case 9: return body(std::integral_constant<int, 9>{});
    case 10: return body(std::integral_constant<int, 10>{});
    case 16: return body(std::integral_constant<int, 16>{});
    default: return false;
  }
}

}  // namespace

void accumulate_row(const double* x, int n, const Matrix& w, int k0, double* acc) {
  assert(k0 >= 0 && k0 + n <= w.rows());
  const int cols = w.cols();
  const double* w0 = w.data() + static_cast<std::size_t>(k0) * cols;
  const bool done = at_layer_width(cols, [&](auto width) {
    constexpr int C = decltype(width)::value;
    double s[C];
    for (int j = 0; j < C; ++j) s[j] = acc[j];
    for (int k = 0; k < n; ++k) {
      const double xk = x[k];
      if (xk == 0.0) continue;
      const double* wk = w0 + static_cast<std::size_t>(k) * C;
      for (int j = 0; j < C; ++j) s[j] += xk * wk[j];
    }
    for (int j = 0; j < C; ++j) acc[j] = s[j];
    return true;
  });
  if (done) return;
  for (int k = 0; k < n; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    const double* wk = w0 + static_cast<std::size_t>(k) * cols;
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

void matmul_tn(const double* a, const double* b, int rows, int m, int n, double* c) {
  // c(i, j) sums a(k, i) * b(k, j) over ascending k from 0.0, skipping
  // a(k, i) == 0.0. The register kernel finishes one row of c at a time.
  const bool done = at_layer_width(n, [&](auto width) {
    constexpr int C = decltype(width)::value;
    for (int i = 0; i < m; ++i) {
      double s[C] = {};
      for (int k = 0; k < rows; ++k) {
        const double aki = a[static_cast<std::size_t>(k) * m + i];
        if (aki == 0.0) continue;
        const double* bk = b + static_cast<std::size_t>(k) * C;
        for (int j = 0; j < C; ++j) s[j] += aki * bk[j];
      }
      std::copy(s, s + C, c + static_cast<std::size_t>(i) * C);
    }
    return true;
  });
  if (done) return;
  std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0);
  for (int k = 0; k < rows; ++k) {
    for (int i = 0; i < m; ++i) {
      const double aki = a[static_cast<std::size_t>(k) * m + i];
      if (aki == 0.0) continue;
      const double* bk = b + static_cast<std::size_t>(k) * n;
      double* ci = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) ci[j] += aki * bk[j];
    }
  }
}

void matmul_nt(const double* a, const double* b, int rows, int kn, int n, double* c) {
  // c(i, j) sums a(i, k) * b(j, k) over ascending k from 0.0, with no zero
  // skip. The register kernel runs a row's outputs as independent sums.
  const bool done = at_layer_width(n, [&](auto width) {
    constexpr int C = decltype(width)::value;
    for (int i = 0; i < rows; ++i) {
      const double* ai = a + static_cast<std::size_t>(i) * kn;
      double s[C] = {};
      for (int k = 0; k < kn; ++k) {
        for (int j = 0; j < C; ++j) s[j] += ai[k] * b[j * kn + k];
      }
      std::copy(s, s + C, c + static_cast<std::size_t>(i) * C);
    }
    return true;
  });
  if (done) return;
  for (int i = 0; i < rows; ++i) {
    const double* ai = a + static_cast<std::size_t>(i) * kn;
    for (int j = 0; j < n; ++j) {
      const double* bj = b + static_cast<std::size_t>(j) * kn;
      double s = 0.0;
      for (int k = 0; k < kn; ++k) s += ai[k] * bj[k];
      c[static_cast<std::size_t>(i) * n + j] = s;
    }
  }
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  matmul_tn(a.data(), b.data(), a.rows(), a.cols(), b.cols(), c.data());
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  matmul_nt(a.data(), b.data(), a.rows(), a.cols(), b.rows(), c.data());
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
