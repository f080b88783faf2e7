#include "hbosim/common/fastmath.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

// Function multiversioning: compile each hot loop for the x86-64 baseline
// plus AVX2 and AVX-512 and pick the best at load time via ifunc. On other
// platforms the plain definition is used. The loops are written so GCC's
// vectorizer handles them (no libm calls with errno side effects, no
// branches in the loop body); fastmath.cpp is built with
// -ftree-vectorize -fvect-cost-model=dynamic -fno-math-errno (see
// src/CMakeLists.txt).
//
// Under ThreadSanitizer the clones are disabled: the ifunc resolvers run
// during relocation, before the TSan runtime has initialized its
// thread-state TLS, and any instrumented code reached from a resolver
// segfaults at startup (reproducible with a 5-line target_clones program).
#if defined(__SANITIZE_THREAD__)
#define HB_FASTMATH_NO_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HB_FASTMATH_NO_CLONES 1
#endif
#endif

#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__) && \
    !defined(HB_FASTMATH_NO_CLONES)
#define HB_FASTMATH_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define HB_FASTMATH_CLONES
#endif

namespace hbosim::fastmath {

namespace {

// Cephes-style expression of exp(x): argument reduction x = n ln2 + px
// with round-to-nearest n (the 1.5*2^52 shift trick keeps the loop
// branch-free and vectorizable; std::floor blocks GCC's vectorizer), then
// a degree-6/7 rational approximation on |px| <= ln2/2, then scaling by
// 2^n assembled directly from the exponent bits. Max error ~2 ulp.
inline double exp_core(double v) {
  constexpr double kLog2e = 1.4426950408889634073599;
  constexpr double kShift = 6755399441055744.0;  // 1.5 * 2^52
  constexpr double kC1 = 6.93145751953125e-1;
  constexpr double kC2 = 1.42860682030941723212e-6;
  constexpr double kP0 = 1.26177193074810590878e-4;
  constexpr double kP1 = 3.02994407707441961300e-2;
  constexpr double kP2 = 9.99999999999999999910e-1;
  constexpr double kQ0 = 3.00198505138664455042e-6;
  constexpr double kQ1 = 2.52448340349684104192e-3;
  constexpr double kQ2 = 2.27265548208155028766e-1;
  constexpr double kQ3 = 2.00000000000000000005e0;
  v = v < -700.0 ? -700.0 : v;
  v = v > 700.0 ? 700.0 : v;
  const double t = v * kLog2e + kShift;
  const double nf = t - kShift;
  const int ni = static_cast<int>(nf);
  const double px = v - nf * kC1 - nf * kC2;
  const double xx = px * px;
  const double p = px * ((kP0 * xx + kP1) * xx + kP2);
  const double q = (((kQ0 * xx + kQ1) * xx + kQ2) * xx + kQ3);
  const double e = 1.0 + 2.0 * (p / (q - p));
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(ni + 1023) << 52);
  return e * scale;
}

}  // namespace

HB_FASTMATH_CLONES
void exp_many(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_core(x[i]);
}

HB_FASTMATH_CLONES
void axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

HB_FASTMATH_CLONES
void sq_accum(const double* x, double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i] * x[i];
}

HB_FASTMATH_CLONES
void sq_dist_accum(const double* x, double c, double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - c;
    acc[i] += d * d;
  }
}

HB_FASTMATH_CLONES
void sqrt_many(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sqrt(x[i]);
}

HB_FASTMATH_CLONES
void div_many(double* x, double d, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] /= d;
}

// The block routines take __restrict__ pointers (callers pass distinct
// buffers) and mark provably independent inner loops with GCC ivdep: the
// vectorizer otherwise emits runtime overlap checks per row, which at
// 64-candidate blocks cost more than the arithmetic itself.
HB_FASTMATH_CLONES
void dist_rows(const double* __restrict__ ct, const double* __restrict__ x,
               std::size_t n, std::size_t d, std::size_t bc,
               std::size_t bstride, double* __restrict__ out) {
  for (std::size_t i = 0; i < n; ++i) {
    double* row = out + i * bstride;
    for (std::size_t c = 0; c < bstride; ++c) row[c] = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double xc = x[i * d + j];
      const double* cj = ct + j * bstride;
#pragma GCC ivdep
      for (std::size_t c = 0; c < bc; ++c) {
        const double dd = cj[c] - xc;
        row[c] += dd * dd;
      }
    }
    for (std::size_t c = 0; c < bc; ++c) row[c] = std::sqrt(row[c]);
  }
}

HB_FASTMATH_CLONES
void accum_weighted_rows(const double* __restrict__ v, std::size_t n,
                         std::size_t stride, const double* __restrict__ w,
                         double* __restrict__ out, std::size_t bc) {
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = w[i];
    const double* vi = v + i * stride;
#pragma GCC ivdep
    for (std::size_t c = 0; c < bc; ++c) out[c] += wi * vi[c];
  }
}

HB_FASTMATH_CLONES
void accum_rowsq(const double* __restrict__ v, std::size_t n,
                 std::size_t stride, double* __restrict__ out,
                 std::size_t bc) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* vi = v + i * stride;
#pragma GCC ivdep
    for (std::size_t c = 0; c < bc; ++c) out[c] += vi[c] * vi[c];
  }
}

namespace {

/// Forward substitution over `count` right-hand sides with the k loop
/// unrolled by 8: the row update b(i, :) -= sum of eight L(i, k) * b(k, :)
/// terms stores each output row once per eight k's instead of once per k,
/// which is what limits the naive k-at-a-time form (the whole block lives
/// in L1, so the store port, not bandwidth, is the bottleneck). The
/// eight-term sum reassociates the per-column accumulation, so columns
/// agree with the scalar solve_lower only to a few ulp — callers of
/// trsm_lower_inplace accept that (see fastmath.hpp). Templated on the
/// column count so the kBlock==64 hot case gets fixed trip counts.
template <std::size_t kFixed>
HB_FASTMATH_CLONES inline void trsm_rows(const double* __restrict__ l,
                                         std::size_t lstride, std::size_t n,
                                         double* __restrict__ b,
                                         std::size_t count,
                                         std::size_t bstride) {
  const std::size_t cn = kFixed != 0 ? kFixed : count;
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * lstride;
    double* bi = b + i * bstride;
    std::size_t k = 0;
    for (; k + 8 <= i; k += 8) {
      const double a0 = li[k], a1 = li[k + 1], a2 = li[k + 2], a3 = li[k + 3],
                   a4 = li[k + 4], a5 = li[k + 5], a6 = li[k + 6],
                   a7 = li[k + 7];
      const double *p0 = b + (k + 0) * bstride, *p1 = b + (k + 1) * bstride,
                   *p2 = b + (k + 2) * bstride, *p3 = b + (k + 3) * bstride,
                   *p4 = b + (k + 4) * bstride, *p5 = b + (k + 5) * bstride,
                   *p6 = b + (k + 6) * bstride, *p7 = b + (k + 7) * bstride;
#pragma GCC ivdep
      for (std::size_t c = 0; c < cn; ++c)
        bi[c] -= a0 * p0[c] + a1 * p1[c] + a2 * p2[c] + a3 * p3[c] +
                 a4 * p4[c] + a5 * p5[c] + a6 * p6[c] + a7 * p7[c];
    }
    for (; k < i; ++k) {
      const double a = li[k];
      const double* bk = b + k * bstride;
#pragma GCC ivdep
      for (std::size_t c = 0; c < cn; ++c) bi[c] -= a * bk[c];
    }
    const double dii = li[i];
#pragma GCC ivdep
    for (std::size_t c = 0; c < cn; ++c) bi[c] /= dii;
  }
}

}  // namespace

void trsm_lower_inplace(const double* l, std::size_t lstride, std::size_t n,
                        double* b, std::size_t count, std::size_t bstride) {
  // 64 is predict_many's block width; the specialization's fixed trip
  // counts are worth ~15% there and it is bitwise identical to the
  // generic path (same unroll pattern, same operation order).
  if (count == 64) {
    trsm_rows<64>(l, lstride, n, b, count, bstride);
  } else {
    trsm_rows<0>(l, lstride, n, b, count, bstride);
  }
}

namespace {

/// ||z_c - x_i||^2 for candidate c of a transposed block, coordinates
/// summed in order. Forced inline so both passes of every nw_rows clone
/// compile it to the same instructions: the second pass then recomputes
/// the first pass's distances bitwise.
[[gnu::always_inline]] inline double block_sq_dist(const double* ct,
                                                   std::size_t bstride,
                                                   std::size_t c,
                                                   const double* xi,
                                                   std::size_t d) {
  double d2 = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double dd = ct[j * bstride + c] - xi[j];
    d2 += dd * dd;
  }
  return d2;
}

/// nw_block's two passes, each one loop over the block per support point
/// that keeps a candidate's distance in a register. Templated on the
/// dimension so the 5-dim offload z-space, the one a benchmark workload
/// runs with a learned prior, unrolls the coordinate loop and vectorizes
/// across candidates; kD = 0 takes d at run time and is not vectorized.
template <std::size_t kD>
HB_FASTMATH_CLONES inline void nw_rows(
    const double* __restrict__ ct, std::size_t bstride, std::size_t bc,
    std::size_t d, const double* __restrict__ x, const double* __restrict__ v,
    std::size_t n, double k, double* __restrict__ min_d2,
    double* __restrict__ num, double* __restrict__ den) {
  const std::size_t dn = kD != 0 ? kD : d;
  for (std::size_t c = 0; c < bc; ++c) {
    min_d2[c] = std::numeric_limits<double>::infinity();
    num[c] = 0.0;
    den[c] = 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = x + i * dn;
#pragma GCC ivdep
    for (std::size_t c = 0; c < bc; ++c) {
      const double d2 = block_sq_dist(ct, bstride, c, xi, dn);
      min_d2[c] = d2 < min_d2[c] ? d2 : min_d2[c];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = x + i * dn;
    const double vi = v[i];
#pragma GCC ivdep
    for (std::size_t c = 0; c < bc; ++c) {
      const double d2 = block_sq_dist(ct, bstride, c, xi, dn);
      const double w = exp_core((min_d2[c] - d2) * k);
      num[c] += w * vi;
      den[c] += w;
    }
  }
}

}  // namespace

void nw_block(const double* ct, std::size_t bstride, std::size_t bc,
              std::size_t d, const double* x, const double* v, std::size_t n,
              double k, double* min_d2, double* num, double* den) {
  if (d == 5)
    return nw_rows<5>(ct, bstride, bc, d, x, v, n, k, min_d2, num, den);
  nw_rows<0>(ct, bstride, bc, d, x, v, n, k, min_d2, num, den);
}

// The kernel-from-distance loops hoist the division by the length scale
// out of the loop as a reciprocal multiply — the batched path is already
// specified only to ulp-level agreement with the scalar from_distance, and
// one vdivpd per element would otherwise dominate the loop.
HB_FASTMATH_CLONES
void matern52_from_r(double length, double sigma2, const double* r,
                     double* out, std::size_t n) {
  const double scale = std::sqrt(5.0) / length;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = r[i] * scale;
    out[i] = sigma2 * (1.0 + s + s * s / 3.0) * exp_core(-s);
  }
}

HB_FASTMATH_CLONES
void matern32_from_r(double length, double sigma2, const double* r,
                     double* out, std::size_t n) {
  const double scale = std::sqrt(3.0) / length;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = r[i] * scale;
    out[i] = sigma2 * (1.0 + s) * exp_core(-s);
  }
}

HB_FASTMATH_CLONES
void rbf_from_r(double length, double sigma2, const double* r, double* out,
                std::size_t n) {
  const double neg_inv = -1.0 / (2.0 * length * length);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = sigma2 * exp_core(r[i] * r[i] * neg_inv);
  }
}

}  // namespace hbosim::fastmath
