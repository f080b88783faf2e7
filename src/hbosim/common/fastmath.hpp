#pragma once

#include <cstddef>

/// \file fastmath.hpp
/// Flat, vectorization-friendly numeric loops for the BO hot path (batched
/// GP prediction, incremental Cholesky maintenance and the learned prior's
/// batched mean). These are the only
/// routines in hbosim where throughput beats readability: the acquisition
/// step scores ~600 candidates against the surrogate per control period,
/// and each score is an O(n^2) triangular solve plus n kernel evaluations.
///
/// fastmath.cpp is compiled with auto-vectorization enabled and (on
/// x86-64 Linux/GCC-compatible toolchains) function multiversioning, so
/// the same portable C++ dispatches to AVX2/AVX-512 code paths at runtime
/// without changing the build architecture baseline. The routines use
/// plain IEEE arithmetic, but FMA contraction (and, where documented,
/// unrolled accumulation or a polynomial exp) means results may differ
/// from a scalar baseline evaluation by a few ulp; callers that need
/// bitwise reproducibility must use the scalar paths instead.
///
/// All pointers must be non-null for n > 0; inputs and outputs must not
/// alias unless a routine says so.

namespace hbosim::fastmath {

/// out[i] = exp(x[i]) to within 2 ulp, for x in [-700, 700]; inputs
/// outside that range are clamped first (the BO kernels only ever pass
/// non-positive arguments well inside it). out may alias x.
void exp_many(const double* x, double* out, std::size_t n);

/// Distance block for batched GP prediction: out(i, c) = ||z_c - x_i||
/// for n training points x (row-major, n x d) against bc candidates given
/// TRANSPOSED as ct (d x bstride, coordinate-major). Each output row has
/// stride `bstride`; columns bc..bstride-1 are zero-filled so downstream
/// whole-row kernels see benign padding. One call replaces n * d strided
/// passes, keeping the inner loops long enough to vectorize well.
void dist_rows(const double* ct, const double* x, std::size_t n, std::size_t d,
               std::size_t bc, std::size_t bstride, double* out);

/// out[c] += sum_i w[i] * v(i, c) for row-major v (n rows, given stride).
void accum_weighted_rows(const double* v, std::size_t n, std::size_t stride,
                         const double* w, double* out, std::size_t bc);

/// out[c] += sum_i v(i, c)^2 for row-major v (n rows, given stride).
void accum_rowsq(const double* v, std::size_t n, std::size_t stride,
                 double* out, std::size_t bc);

/// In-place multi-right-hand-side forward substitution: solve L Y = B for
/// lower-triangular L (n x n, row stride lstride) and B holding `count`
/// right-hand sides row-major (B(i, c) = b[i * bstride + c]); B becomes Y.
/// IEEE divisions, but the dot-product accumulation is unrolled (and may
/// contract to FMA), so each column agrees with a scalar forward
/// substitution only to a few ulp — fine for the batched predict path,
/// which is specified to ulp-level agreement, but do not use where bitwise
/// reproducibility against Cholesky::solve_lower is required.
void trsm_lower_inplace(const double* l, std::size_t lstride, std::size_t n,
                        double* b, std::size_t count, std::size_t bstride);

/// Widest candidate block nw_block takes.
inline constexpr std::size_t kNwBlock = 64;

/// Fused Nadaraya-Watson sums for bc <= kNwBlock candidates given
/// TRANSPOSED as ct (d x bstride, coordinate-major) against n >= 1 support
/// points x (row-major, n x d) with values v. Per candidate c, with
/// d2(i, c) = ||z_c - x_i||^2 accumulated coordinate by coordinate:
///   min_d2[c] = min_i d2(i, c),
///   num[c]    = sum_i v[i] * exp((min_d2[c] - d2(i, c)) * k),
///   den[c]    = sum_i exp((min_d2[c] - d2(i, c)) * k),
/// both sums in support order, each exp within 2 ulp of std::exp (the
/// exp_many core, clamped at -700). The first pass takes the minimum and
/// the second recomputes every distance instead of storing an n x bc
/// block, so the working set is the block and its three output rows
/// whatever n is. The recomputation is bitwise equal to the first pass,
/// so the nearest point weighs exactly 1 and den[c] >= 1. k must be >= 0.
/// Vectorized across candidates for d = 5 (the offload z-space); other
/// dimensions run the same arithmetic unvectorized.
void nw_block(const double* ct, std::size_t bstride, std::size_t bc,
              std::size_t d, const double* x, const double* v, std::size_t n,
              double k, double* min_d2, double* num, double* den);

/// Matern-5/2 covariance from distances: out[i] = sigma2 * (1 + s + s^2/3)
/// * exp(-s) with s = sqrt(5) * r[i] / length. out may alias r.
void matern52_from_r(double length, double sigma2, const double* r,
                     double* out, std::size_t n);

/// Matern-3/2: out[i] = sigma2 * (1 + s) * exp(-s), s = sqrt(3) * r[i] /
/// length. out may alias r.
void matern32_from_r(double length, double sigma2, const double* r,
                     double* out, std::size_t n);

/// RBF: out[i] = sigma2 * exp(-r[i]^2 / (2 length^2)). out may alias r.
void rbf_from_r(double length, double sigma2, const double* r, double* out,
                std::size_t n);

}  // namespace hbosim::fastmath
