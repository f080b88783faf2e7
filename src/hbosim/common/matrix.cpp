#include "hbosim/common/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/common/fastmath.hpp"

namespace hbosim {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), stride_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::reserve(std::size_t rows, std::size_t cols) {
  const std::size_t new_stride = std::max(stride_, cols);
  const std::size_t need = std::max(rows, rows_) * new_stride;
  if (new_stride == stride_) {
    if (need > data_.size()) data_.resize(need, 0.0);
    return;
  }
  // Wider stride: re-lay rows out back to front so the copy never
  // overwrites data it still has to read.
  data_.resize(need, 0.0);
  for (std::size_t r = rows_; r-- > 0;) {
    double* src = data_.data() + r * stride_;
    double* dst = data_.data() + r * new_stride;
    std::copy_backward(src, src + cols_, dst + cols_);
    std::fill(dst + cols_, dst + new_stride, 0.0);
  }
  stride_ = new_stride;
}

void Matrix::conservative_resize(std::size_t new_rows, std::size_t new_cols) {
  if (new_cols > stride_ || new_rows * stride_ > data_.size()) {
    // Out of capacity: reserve with geometric growth so a sequence of +1
    // resizes costs O(1) amortized allocations.
    reserve(std::max(new_rows, 2 * rows_), std::max(new_cols, 2 * cols_));
  }
  // Zero-fill cells newly exposed by growth (capacity regions may hold
  // stale values from an earlier shrink).
  for (std::size_t r = 0; r < new_rows; ++r) {
    double* p = data_.data() + r * stride_;
    const std::size_t keep = (r < rows_) ? cols_ : 0;
    if (keep < new_cols) std::fill(p + keep, p + new_cols, 0.0);
  }
  rows_ = new_rows;
  cols_ = new_cols;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  HB_ASSERT(r < rows_ && c < cols_, "Matrix index out of range");
  return data_[r * stride_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  HB_ASSERT(r < rows_ && c < cols_, "Matrix index out of range");
  return data_[r * stride_ + c];
}

std::span<const double> Matrix::row(std::size_t r) const {
  HB_ASSERT(r < rows_, "Matrix row out of range");
  return {data_.data() + r * stride_, cols_};
}

std::span<double> Matrix::row(std::size_t r) {
  HB_ASSERT(r < rows_, "Matrix row out of range");
  return {data_.data() + r * stride_, cols_};
}

Cholesky::Cholesky(const Matrix& a, double jitter) : jitter_(jitter) {
  HB_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  l_ = Matrix(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    HB_REQUIRE(diag > 0.0, "Cholesky: matrix not positive definite");
    l_(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l_(i, k) * l_(j, k);
      l_(i, j) = v / l_(j, j);
    }
  }
}

void Cholesky::reserve(std::size_t capacity) { l_.reserve(capacity, capacity); }

void Cholesky::append_row(std::span<const double> off_diag, double diag) {
  const std::size_t n = size();
  HB_REQUIRE(off_diag.size() == n, "append_row: dimension mismatch");
  l_.conservative_resize(n + 1, n + 1);
  // Forward-substitute the new row: these are exactly the operations the
  // full factorization performs for row n, so the grown factor is bitwise
  // identical to a from-scratch Cholesky of the grown matrix.
  double* lr = l_.row(n).data();
  double d = diag + jitter_;
  for (std::size_t j = 0; j < n; ++j) {
    const double* pj = l_.row(j).data();
    double v = off_diag[j];
    for (std::size_t k = 0; k < j; ++k) v -= lr[k] * pj[k];
    lr[j] = v / pj[j];
  }
  for (std::size_t k = 0; k < n; ++k) d -= lr[k] * lr[k];
  if (!(d > 0.0)) {
    l_.conservative_resize(n, n);  // leave the factor unchanged on failure
    HB_REQUIRE(false, "Cholesky::append_row: matrix not positive definite");
  }
  lr[n] = std::sqrt(d);
}

std::vector<double> Cholesky::solve_lower(std::span<const double> b) const {
  std::vector<double> y(size());
  solve_lower(b, y);
  return y;
}

void Cholesky::solve_lower(std::span<const double> b,
                           std::span<double> out) const {
  const std::size_t n = size();
  HB_REQUIRE(b.size() == n, "solve_lower: dimension mismatch");
  HB_REQUIRE(out.size() == n, "solve_lower: output dimension mismatch");
  const std::size_t stride = l_.stride();
  const double* lp = n > 0 ? l_.row(0).data() : nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    const double* ri = lp + i * stride;
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= ri[k] * out[k];
    out[i] = v / ri[i];
  }
}

void Cholesky::solve_lower_many(double* b, std::size_t count,
                                std::size_t stride) const {
  HB_REQUIRE(stride >= count, "solve_lower_many: stride < count");
  const std::size_t n = size();
  if (n == 0 || count == 0) return;
  fastmath::trsm_lower_inplace(l_.row(0).data(), l_.stride(), n, b, count,
                               stride);
}

std::vector<double> Cholesky::solve_upper(std::span<const double> b) const {
  std::vector<double> x(size());
  solve_upper(b, x);
  return x;
}

void Cholesky::solve_upper(std::span<const double> b,
                           std::span<double> out) const {
  const std::size_t n = size();
  HB_REQUIRE(b.size() == n, "solve_upper: dimension mismatch");
  HB_REQUIRE(out.size() == n, "solve_upper: output dimension mismatch");
  const std::size_t stride = l_.stride();
  const double* lp = n > 0 ? l_.row(0).data() : nullptr;
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double v = b[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= lp[k * stride + i] * out[k];
    out[i] = v / lp[i * stride + i];
  }
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  return solve_upper(solve_lower(b));
}

void Cholesky::solve(std::span<const double> b, std::span<double> out) const {
  solve_lower(b, out);
  solve_upper(out, out);
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < size(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

}  // namespace hbosim
