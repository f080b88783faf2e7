// Unit tests for the dense matrix and Cholesky solver used by the GP.

#include <gtest/gtest.h>

#include <cmath>

#include "hbosim/common/error.hpp"
#include "hbosim/common/matrix.hpp"
#include "hbosim/common/rng.hpp"

namespace hbosim {
namespace {

TEST(Matrix, IdentityAndIndexing) {
  Matrix m = Matrix::identity(3);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  m(0, 1) = 2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
}

TEST(Cholesky, KnownFactorization) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
  Cholesky chol(a);
  EXPECT_NEAR(chol.lower()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol.lower()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol.lower()(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(chol.log_det(), std::log(8.0), 1e-12);  // det = 4*3-4 = 8
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
  // x = (1, -1) -> b = A x = (2, -1).
  const auto x = Cholesky(a).solve(std::vector<double>{2.0, -1.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], -1.0, 1e-12);
}

TEST(Cholesky, RandomSpdRoundTrip) {
  Rng rng(55);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 1 + rng.uniform_index(8);
    // A = B B^T + n*I is SPD.
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
        a(i, j) = acc + (i == j ? static_cast<double>(n) : 0.0);
      }
    }
    std::vector<double> x(n);
    for (auto& v : x) v = rng.normal();
    std::vector<double> rhs(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) rhs[i] += a(i, j) * x[j];
    const auto solved = Cholesky(a).solve(rhs);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(solved[i], x[i], 1e-8);
  }
}

TEST(Cholesky, TriangularSolvesComposeToFullSolve) {
  Matrix a(2, 2);
  a(0, 0) = 5; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 3;
  Cholesky chol(a);
  const std::vector<double> b = {1.0, 2.0};
  const auto y = chol.solve_lower(b);
  const auto x = chol.solve_upper(y);
  const auto direct = chol.solve(b);
  EXPECT_NEAR(x[0], direct[0], 1e-14);
  EXPECT_NEAR(x[1], direct[1], 1e-14);
}

TEST(Cholesky, NotPositiveDefiniteThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;  // indefinite
  EXPECT_THROW(Cholesky{a}, Error);
}

TEST(Cholesky, JitterRescuesSemidefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 1;  // rank 1
  EXPECT_THROW(Cholesky{a}, Error);
  EXPECT_NO_THROW(Cholesky(a, 1e-8));
}

TEST(Cholesky, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(Cholesky{a}, Error);
}

/// Random SPD matrix: A = B B^T + n*I.
Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += b(i, k) * b(j, k);
      a(i, j) = acc + (i == j ? static_cast<double>(n) : 0.0);
    }
  return a;
}

Matrix leading_block(const Matrix& a, std::size_t m) {
  Matrix out(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) out(i, j) = a(i, j);
  return out;
}

TEST(Matrix, ConservativeResizePreservesBlockAndZeroFills) {
  Matrix m(2, 2);
  m(0, 0) = 1; m(0, 1) = 2; m(1, 0) = 3; m(1, 1) = 4;
  m.conservative_resize(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      if (r >= 2 || c >= 2) {
        EXPECT_DOUBLE_EQ(m(r, c), 0.0);
      }
    }
  }

  // Shrink then regrow: the regrown region must be zeroed, not stale.
  m(2, 3) = 9.0;
  m.conservative_resize(1, 1);
  m.conservative_resize(3, 4);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(2, 3), 0.0);
}

TEST(Matrix, ReserveMakesGrowthInPlace) {
  Matrix m(1, 1);
  m(0, 0) = 7.0;
  m.reserve(16, 16);
  const double* base = m.row(0).data();
  for (std::size_t n = 2; n <= 16; ++n) {
    m.conservative_resize(n, n);
    EXPECT_EQ(m.row(0).data(), base);  // no reallocation within capacity
  }
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_GE(m.stride(), m.cols());
}

TEST(Cholesky, AppendRowMatchesFromScratchFactorization) {
  // Growing the factor one bordered update at a time must reproduce the
  // full factorization bitwise at every intermediate size — this is what
  // makes the incremental GP path exactly equivalent to refitting.
  Rng rng(77);
  for (double jitter : {0.0, 1e-8}) {
    for (int rep = 0; rep < 4; ++rep) {
      const std::size_t n = 2 + rng.uniform_index(23);  // up to 24
      const Matrix a = random_spd(n, rng);
      Cholesky grown(leading_block(a, 1), jitter);
      grown.reserve(n);
      std::vector<double> off;
      for (std::size_t m = 2; m <= n; ++m) {
        off.resize(m - 1);
        for (std::size_t j = 0; j + 1 < m; ++j) off[j] = a(m - 1, j);
        grown.append_row(off, a(m - 1, m - 1));
        const Cholesky fresh(leading_block(a, m), jitter);
        ASSERT_EQ(grown.size(), m);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j <= i; ++j)
            EXPECT_EQ(grown.lower()(i, j), fresh.lower()(i, j))
                << "n=" << n << " m=" << m << " (" << i << "," << j << ")";
      }
      EXPECT_EQ(grown.log_det(), Cholesky(a, jitter).log_det());
    }
  }
}

TEST(Cholesky, AppendRowRejectsIndefiniteGrowthAndKeepsFactor) {
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
  Cholesky chol(a);
  // Appending a row that makes the matrix indefinite must throw and leave
  // the existing factor usable.
  EXPECT_THROW(chol.append_row(std::vector<double>{10.0, 10.0}, 1.0), Error);
  EXPECT_EQ(chol.size(), 2u);
  const auto x = chol.solve(std::vector<double>{2.0, -1.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], -1.0, 1e-12);
  EXPECT_THROW(chol.append_row(std::vector<double>{1.0}, 1.0), Error);  // size
}

TEST(Cholesky, SpanSolveOverloadsMatchValueVersionsAndAllowAliasing) {
  Rng rng(78);
  const std::size_t n = 9;
  const Matrix a = random_spd(n, rng);
  const Cholesky chol(a);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.normal();

  const auto lower = chol.solve_lower(b);
  const auto upper = chol.solve_upper(b);
  const auto full = chol.solve(b);

  std::vector<double> out(n);
  chol.solve_lower(b, out);
  EXPECT_EQ(out, lower);
  chol.solve_upper(b, out);
  EXPECT_EQ(out, upper);
  chol.solve(b, out);
  EXPECT_EQ(out, full);

  // In-place: out aliases b.
  std::vector<double> buf = b;
  chol.solve_lower(buf, buf);
  EXPECT_EQ(buf, lower);
  buf = b;
  chol.solve(buf, buf);
  EXPECT_EQ(buf, full);
}

TEST(Cholesky, SolveLowerManyMatchesPerColumnSolves) {
  Rng rng(79);
  const std::size_t n = 11;
  const Matrix a = random_spd(n, rng);
  const Cholesky chol(a);
  const std::size_t count = 5, stride = 8;  // padded layout
  std::vector<double> block(n * stride, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < count; ++c) block[i * stride + c] = rng.normal();

  std::vector<std::vector<double>> expected;
  for (std::size_t c = 0; c < count; ++c) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = block[i * stride + c];
    expected.push_back(chol.solve_lower(col));
  }
  chol.solve_lower_many(block.data(), count, stride);
  for (std::size_t c = 0; c < count; ++c)
    for (std::size_t i = 0; i < n; ++i) {
      const double exact = expected[c][i];
      // Not bitwise: the batched kernels may contract to FMA where the
      // scalar baseline build cannot, so allow a few ulp.
      EXPECT_NEAR(block[i * stride + c], exact, std::abs(exact) * 1e-14)
          << i << "," << c;
    }
}

}  // namespace
}  // namespace hbosim
