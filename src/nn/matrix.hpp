#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace giph::nn {

/// Dense row-major matrix of doubles. The shapes used by GiPH are tiny
/// (embedding dims 4-16), so a straightforward implementation is both simple
/// and fast enough; all autograd ops are built on top of this type.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * cols, fill) {
    assert(rows >= 0 && cols >= 0);
  }

  static Matrix zeros(int rows, int cols) { return Matrix(rows, cols, 0.0); }
  static Matrix from_row(const std::vector<double>& v) {
    Matrix m(1, static_cast<int>(v.size()));
    m.data_ = v;
    return m;
  }
  static Matrix from_col(const std::vector<double>& v) {
    Matrix m(static_cast<int>(v.size()), 1);
    m.data_ = v;
    return m;
  }
  static Matrix scalar(double v) {
    Matrix m(1, 1);
    m(0, 0) = v;
    return m;
  }

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool same_shape(const Matrix& o) const noexcept {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  double& operator()(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reshapes to rows x cols, every entry `fill`, keeping the allocation when
  /// it is large enough: the reused buffers of the forward-only inference
  /// path stop allocating once they have grown to an instance's size.
  void assign(int rows, int cols, double fill = 0.0) {
    assert(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) * cols, fill);
  }

  Matrix& operator+=(const Matrix& o) {
    assert(same_shape(o));
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    assert(same_shape(o));
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }
  Matrix& operator*=(double s) {
    for (double& x : data_) x *= s;
    return *this;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// A row width known at compile time. The row kernels below take a width
/// either as Fixed<C> or as a plain int, and run one body at both: at a
/// Fixed width the loops unroll and a Row stays in registers.
template <int C>
using Fixed = std::integral_constant<int, C>;

/// One row of width W. At a Fixed<C> width it is a local array, and the
/// pointer is ignored; at a run-time width it is the caller's doubles from
/// base + at.
template <class W>
struct Row {
  double* v;
  explicit Row(double* base, std::size_t at = 0) : v(base + at) {}
};
template <int C>
struct Row<Fixed<C>> {
  double v[C] = {};
  explicit Row(double*, std::size_t = 0) {}
};

/// acc[j] += x[k] * w[k * cols + j] for j < cols and k = 0, 1, ..., n - 1 in
/// ascending order, skipping x[k] == 0.0: matmul's loop for one output row,
/// at widths n and cols that are each Fixed<C> or int. `acc` must not
/// overlap `x` or `w`.
template <class N, class Cols>
inline void accumulate_row_at(const double* x, N n, const double* w, Cols cols,
                              double* acc) {
  for (int k = 0; k < n; ++k) {
    const double xk = x[k];
    if (xk == 0.0) continue;
    const double* wk = w + static_cast<std::size_t>(k) * cols;
    for (int j = 0; j < cols; ++j) acc[j] += xk * wk[j];
  }
}

/// y = x w for one row: accumulate_row_at from +0.0, with the partial sums
/// in a Row. `y` must not overlap `x` or `w`.
template <class N, class Cols>
inline void matmul_row_at(const double* x, N n, const double* w, Cols cols, double* y) {
  Row<Cols> s(y);
  for (int j = 0; j < cols; ++j) s.v[j] = 0.0;
  accumulate_row_at(x, n, w, cols, s.v);
  for (int j = 0; j < cols; ++j) y[j] = s.v[j];
}

/// accumulate_row_at over rows k0 .. k0 + n - 1 of `w`, at run-time widths:
/// at the widths the GiPH layers use it dispatches to a Fixed instance that
/// holds acc's row in a Row. Splitting a row's k range over several calls
/// resumes the partial sums in matmul's order.
void accumulate_row(const double* x, int n, const Matrix& w, int k0, double* acc);

/// C = A * B; row i is accumulate_row over A's row i from zero.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B (avoids materializing the transpose).
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);
/// The kernels behind the two above, on row-major buffers, for callers that
/// keep their rows in scratch of their own. matmul_tn writes the m x n
/// matrix c = a^T b for a (rows x m) and b (rows x n): c(i, j) sums
/// a(k, i) * b(k, j) over ascending k from 0.0, skipping a(k, i) == 0.0.
/// matmul_nt writes the rows x n matrix c = a b^T for a (rows x kn) and
/// b (n x kn): c(i, j) sums a(i, k) * b(j, k) over ascending k from 0.0,
/// with no zero skip. `c` must not overlap `a` or `b`.
void matmul_tn(const double* a, const double* b, int rows, int m, int n, double* c);
void matmul_nt(const double* a, const double* b, int rows, int kn, int n, double* c);
Matrix transpose(const Matrix& a);
Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);
Matrix hadamard(const Matrix& a, const Matrix& b);
Matrix operator*(const Matrix& a, double s);

/// out[i] = x[i] - (max x + log sum_j exp(x[j] - max x)) for i < k: the
/// numerically stabilized log-softmax of a k-vector, shared by the tape's
/// log_softmax_col and the forward-only policy head.
void log_softmax(const double* x, int k, double* out);

/// Max-norm of the difference; used by tests and gradient checks. Equal
/// entries (infinities included) differ by 0; a NaN on either side makes the
/// result NaN, so `max_abs_diff(a, b) <= tol` fails on NaN.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// Same shape and byte-identical entries, so the sign of zero and NaN
/// payloads count. The check behind every "bitwise equal" test.
bool bitwise_equal(const Matrix& a, const Matrix& b);

}  // namespace giph::nn
