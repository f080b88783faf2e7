#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// \file matrix.hpp
/// Minimal dense linear algebra for the Gaussian-process code: a row-major
/// Matrix with Cholesky factorization and triangular solves. Sized for the
/// small systems BO produces (tens of observations), so clarity beats
/// cache-blocking here — but the BO hot loop refits the surrogate once per
/// observation, so the storage supports growing in place (reserve +
/// conservative_resize) and the solves have allocation-free span overloads.

namespace hbosim {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Distance (in doubles) between consecutive rows of the backing store.
  /// Equals cols() unless capacity was reserved wider; row data itself is
  /// always contiguous.
  std::size_t stride() const { return stride_; }

  /// Pre-allocate backing storage for a matrix of up to `rows` x `cols`
  /// without changing the logical shape. Existing values are preserved.
  /// After reserve, conservative_resize within the reserved shape never
  /// reallocates.
  void reserve(std::size_t rows, std::size_t cols);

  /// Grow (or shrink) to new_rows x new_cols, preserving every value in
  /// the overlapping top-left block and zero-filling newly exposed cells.
  /// In-place (no allocation, no data movement) whenever the new shape
  /// fits the reserved capacity; otherwise reallocates with geometric
  /// growth so repeated +1 growth is amortized O(1) allocations.
  void conservative_resize(std::size_t new_rows, std::size_t new_cols);

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous view of row r (length cols()).
  std::span<const double> row(std::size_t r) const;
  std::span<double> row(std::size_t r);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> data_;
};

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
/// Adds `jitter` to the diagonal before factorizing; throws hbosim::Error if
/// the matrix is not positive definite even with jitter escalation disabled.
class Cholesky {
 public:
  /// Factorize A (+ jitter*I). A must be square and symmetric.
  explicit Cholesky(const Matrix& a, double jitter = 0.0);

  std::size_t size() const { return l_.rows(); }
  const Matrix& lower() const { return l_; }

  /// Pre-allocate the factor's storage for up to `capacity` rows so that
  /// append_row below never reallocates until the capacity is exceeded.
  void reserve(std::size_t capacity);

  /// Bordered rank-1 update: extend the factor of the n x n matrix A to
  /// the factor of the (n+1) x (n+1) matrix obtained by appending one
  /// symmetric row/column. `off_diag` holds the new off-diagonal entries
  /// a(n, 0..n-1); `diag` is a(n, n). The same jitter passed at
  /// construction is applied to the new diagonal entry. O(n^2), and the
  /// result is bitwise identical to refactorizing the grown matrix from
  /// scratch (the update performs exactly the arithmetic the full
  /// factorization would perform for its last row). Throws if the grown
  /// matrix is not positive definite; the factor is unchanged on throw.
  void append_row(std::span<const double> off_diag, double diag);

  /// Solve L y = b (forward substitution).
  std::vector<double> solve_lower(std::span<const double> b) const;

  /// In-place forward substitution; out may alias b. Does not allocate.
  void solve_lower(std::span<const double> b, std::span<double> out) const;

  /// Forward-substitute L Y = B for `count` right-hand sides at once,
  /// laid out as rows: B(i, c) = b[i * stride + c] for 0 <= i < size(),
  /// 0 <= c < count. Solves in place (B becomes Y); does not allocate.
  /// Each column agrees with solve_lower on that column to within a few
  /// ulp (the batched update unrolls the accumulation and may contract to
  /// FMA where the scalar baseline cannot). The row-major layout lets the
  /// inner loops vectorize across right-hand sides — this is the
  /// per-suggest acquisition batch path.
  void solve_lower_many(double* b, std::size_t count,
                        std::size_t stride) const;

  /// Solve L^T x = b (back substitution).
  std::vector<double> solve_upper(std::span<const double> b) const;

  /// In-place back substitution; out may alias b. Does not allocate.
  void solve_upper(std::span<const double> b, std::span<double> out) const;

  /// Solve (L L^T) x = b.
  std::vector<double> solve(std::span<const double> b) const;

  /// In-place full solve; out may alias b. Does not allocate.
  void solve(std::span<const double> b, std::span<double> out) const;

  /// log det(A) = 2 * sum log L_ii.
  double log_det() const;

 private:
  Matrix l_;
  double jitter_ = 0.0;
};

}  // namespace hbosim
