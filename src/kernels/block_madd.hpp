// Shared inner bodies of the SpMV kernels: the fixed-size block
// multiply-accumulate used by the BCSR and UBCSR kernels (the two formats
// run the identical inner block routine; only the addressing of the
// block's columns differs), the CSR row dot, and the band remainder walk
// the decomposed BCSR/BCSD kernels fold into their block sums.
#pragma once

#include <type_traits>
#include <utility>

#include "src/formats/common.hpp"
#include "src/kernels/simd.hpp"
#include "src/util/macros.hpp"

namespace bspmv::detail {

/// One r×c block multiply-accumulate: sum[0..R) += bv(R×C, row-major) · x'.
/// Scalar flavour — plain fully-unrolled FMA chain.
template <class V, int R, int C>
BSPMV_ALWAYS_INLINE void block_madd_scalar(const V* BSPMV_RESTRICT bv,
                                           const V* BSPMV_RESTRICT xp,
                                           V* BSPMV_RESTRICT sum) {
  for (int r = 0; r < R; ++r)
    for (int c = 0; c < C; ++c) sum[r] += bv[r * C + c] * xp[c];
}

/// SIMD flavour. Strategy by shape:
///  - C a multiple of the vector width: vector dot-product along the block
///    row (x and bval both load contiguously).
///  - C == 1 and R a multiple of the width: vectorise down the block
///    column — bval is contiguous in r, x is one broadcast scalar.
///  - otherwise: unrolled scalar body (odd shapes vectorise poorly, which
///    is exactly the block-choice sensitivity the paper discusses).
template <class V, int R, int C>
BSPMV_ALWAYS_INLINE void block_madd_simd(const V* BSPMV_RESTRICT bv,
                                         const V* BSPMV_RESTRICT xp,
                                         V* BSPMV_RESTRICT sum) {
  constexpr int w = simd_width<V>;
  if constexpr (C % w == 0) {
    for (int r = 0; r < R; ++r) {
      simd_t<V> acc = simd_zero<V>();
      for (int c = 0; c < C; c += w)
        acc += simd_loadu(bv + r * C + c) * simd_loadu(xp + c);
      sum[r] += simd_hsum<V>(acc);
    }
  } else if constexpr (C == 1 && R % w == 0) {
    const simd_t<V> xv = simd_broadcast(xp[0]);
    for (int r = 0; r < R; r += w) {
      simd_t<V> s = simd_loadu(sum + r);
      s += simd_loadu(bv + r) * xv;
      simd_storeu(sum + r, s);
    }
  } else {
    block_madd_scalar<V, R, C>(bv, xp, sum);
  }
}

/// sum + Σ val[k]·x[col_ind[k]] over k in [lo, hi): the CSR row dot,
/// shared by the CSR kernels (sum = 0) and the decomposed kernels' per-row
/// remainder walk (sum = the row's block accumulator). Scalar adds each
/// product to sum in order; SIMD accumulates w-lane groups in a vector,
/// adds its horizontal sum, then the scalar tail. The x gather stays
/// scalar (SSE2 has no gather).
template <class V, bool Simd>
BSPMV_ALWAYS_INLINE V csr_row_dot(const V* BSPMV_RESTRICT val,
                                  const index_t* BSPMV_RESTRICT col_ind,
                                  index_t lo, index_t hi,
                                  const V* BSPMV_RESTRICT x, V sum) {
  index_t k = lo;
  if constexpr (Simd) {
    constexpr int w = simd_width<V>;
    simd_t<V> acc = simd_zero<V>();
    for (; k + w <= hi; k += w) {
      // Manual gather of x lanes; the val lanes load contiguously.
      simd_t<V> xv;
      for (int l = 0; l < w; ++l) xv[l] = x[col_ind[k + l]];
      acc += simd_loadu(val + k) * xv;
    }
    sum += simd_hsum<V>(acc);
  }
  for (; k < hi; ++k) sum += val[k] * x[col_ind[k]];
  return sum;
}

/// Remainder walk thresholds, in entries per row averaged over the band.
inline constexpr int kFlatWalkMaxPerRow = 3;
inline constexpr int kSimdDotMinPerRow = 8;

/// sum[0..R) += the CSR remainder rows of one full R-row band; rp points
/// at the band's first row_ptr entry. The walk is picked per band from
/// its remainder length (the branch is predictable: a matrix's remainder
/// rows are mostly alike):
///  - flat (R = 2 or 3, short rows): one loop over the band's entries;
///    entry k's row is the number of row boundaries at or below k, so the
///    1–5 entry rows typical of a FEM remainder cost no per-row loop exit.
///    It accumulates through memory, so it loses once rows get longer
///    (and at R = 1, where it saves no loop).
///  - per row: a scalar csr_row_dot per row, rows unrolled at compile time.
///  - per row, SIMD (Simd kernels, long rows): the vector csr_row_dot,
///    whose two-lane chains win once rows reach about 8 entries.
/// The first two add each product to sum[r] in stored order, the order of
/// the scalar kernel that the row-major SpMM kernels reproduce per vector.
template <class V, int R, bool Simd>
BSPMV_ALWAYS_INLINE void band_remainder_madd(
    const index_t* BSPMV_RESTRICT rp, const index_t* BSPMV_RESTRICT col_ind,
    const V* BSPMV_RESTRICT val, const V* BSPMV_RESTRICT x,
    V* BSPMV_RESTRICT sum) {
  if constexpr (R == 2 || R == 3) {
    if (rp[R] - rp[0] <= kFlatWalkMaxPerRow * R) {
      index_t bound[R];
      for (int r = 1; r < R; ++r) bound[r - 1] = rp[r];
      for (index_t k = rp[0]; k < rp[R]; ++k) {
        int r = 0;
        for (int b = 0; b + 1 < R; ++b) r += k >= bound[b];
        sum[r] += val[k] * x[col_ind[k]];
      }
      return;
    }
  }
  auto per_row = [&]<bool VecDot, int... r>(std::bool_constant<VecDot>,
                                            std::integer_sequence<int, r...>) {
    ((sum[r] = csr_row_dot<V, VecDot>(val, col_ind, rp[r], rp[r + 1], x,
                                      sum[r])),
     ...);
  };
  constexpr auto rows = std::make_integer_sequence<int, R>{};
  if (Simd && rp[R] - rp[0] >= kSimdDotMinPerRow * R)
    per_row(std::bool_constant<Simd>{}, rows);
  else
    per_row(std::false_type{}, rows);
}

/// The partial tail band's remainder rows (rows < R): the scalar per-row
/// walk.
template <class V>
inline void tail_remainder_madd(const index_t* BSPMV_RESTRICT rp, int rows,
                                const index_t* BSPMV_RESTRICT col_ind,
                                const V* BSPMV_RESTRICT val,
                                const V* BSPMV_RESTRICT x,
                                V* BSPMV_RESTRICT sum) {
  for (int r = 0; r < rows; ++r)
    sum[r] = csr_row_dot<V, false>(val, col_ind, rp[r], rp[r + 1], x, sum[r]);
}

}  // namespace bspmv::detail
