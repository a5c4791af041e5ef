// Shared inner bodies of the SpMV kernels: the fixed-size block
// multiply-accumulate used by the BCSR and UBCSR kernels (the two formats
// run the identical inner block routine; only the addressing of the
// block's columns differs), the CSR row dot, the rule that picks a
// chunk's walk (chunk_walk, shared with the CSR kernels), and the chunked
// remainder walk that fuses the decomposed BCSR/BCSD kernels' blocks and
// CSR remainder into one pass (dec_bands).
#pragma once

#include <algorithm>
#include <type_traits>
#include <utility>

#include "src/formats/common.hpp"
#include "src/formats/decomposed.hpp"
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
/// remainder walk (sum = the row's block sum). Scalar adds each
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

/// R zeroed block sums. When R fills whole vectors the block madds may
/// load and store the sums as vectors; a plain `V sum[R] = {}` is then
/// zeroed by one scalar store per lane, and the first vector load waits
/// for both stores to retire (a failed store forward, once per band:
/// 1.7× on 2×3 blocks). So those sums are stored as may_alias
/// vectors, zeroed by vector stores, and used through data(). Other R
/// keep the plain array, which the compiler can hold in registers.
template <class V, int R, bool Vec = R % simd_width<V> == 0>
struct BlockSums {
  simd_alias_t<V> v[R / simd_width<V>] = {};
  V* data() { return reinterpret_cast<V*>(v); }
};
template <class V, int R>
struct BlockSums<V, R, false> {
  V v[R] = {};
  V* data() { return v; }
};

/// Walk thresholds, per chunk of rows, of the CSR kernels
/// (csr_spmv_range) and the fused decomposed kernels' remainder
/// (dec_bands). The flat walk wins where the per-row walk's loop exits
/// mispredict, that is where row lengths change from row to row, and
/// loses where rows run long: it is taken while the chunk holds fewer
/// than kFlatMaxPerLengthChange entries per change of row length. The
/// per-row walk of the decomposed SIMD kernels uses the vector row dot
/// from kSimdDotMinPerRow entries per row.
inline constexpr int kFlatMaxPerLengthChange = 8;
inline constexpr int kSimdDotMinPerRow = 8;

/// The walk of one chunk of rows, chosen from the whole chunk. Only the
/// decomposed kernels read vec_dot: the CSR SIMD kernel's per-row walk
/// keeps the vector dot on every row, so its per-row chunks keep their
/// summation order (docs/formats.md, "How CSR rows are walked").
struct ChunkWalk {
  bool flat;     ///< one loop over the chunk's entries
  bool vec_dot;  ///< per-row walk: the vector row dot pays
};

/// The walk of the chunk of rows [base, base_end) of row pointers rp,
/// counted branch-free. Callers pass the whole chunk, aligned to
/// absolute rows, never a task's part of it, so every split of the rows
/// walks each chunk the same way. A flat chunk holds at most
/// kFlatMaxPerLengthChange · (base_end - base - 1) entries.
template <bool Simd>
BSPMV_ALWAYS_INLINE ChunkWalk chunk_walk(const index_t* BSPMV_RESTRICT rp,
                                         index_t base, index_t base_end) {
  const index_t entries = rp[base_end] - rp[base];
  index_t changes = 0;
  for (index_t i = base + 1; i < base_end; ++i)
    changes += rp[i + 1] - rp[i] != rp[i] - rp[i - 1];
  return {entries < kFlatMaxPerLengthChange * changes || entries == 0,
          Simd && entries >= kSimdDotMinPerRow * (base_end - base)};
}

/// The fused decomposed SpMV over bands [g0, g1) of R rows (n rows in
/// all): y += each band's block sums plus its rows of the CSR remainder
/// (rp, col_ind, val, tag). sums(g, sum) adds band g's blocks into
/// sum[0..R) (zeroed); after(g) runs once band g's rows of y are written
/// (BCSD adds its boundary diagonals there).
///
/// The bands go in chunks of kRemChunkBands, aligned to absolute band
/// indices. Each chunk picks one walk from its whole remainder
/// (chunk_walk), so a chunk cut by a task's range walks its rows as the
/// whole chunk does:
///  - flat: the band sums go into a chunk-local accumulator, one loop
///    over all of the chunk's entries adds each to its row's slot (the
///    entry's tag), and y is written once per row. No loop or branch runs
///    per row or per band, but a row's entries form one chain of loads
///    and stores through the accumulator.
///  - per row: per band, a row dot per row on the band's sums (the vector
///    dot in SIMD kernels), keeping that chain in a register, but paying
///    a loop exit per row.
/// Every row adds its block sums, then its remainder entries in stored
/// order (the SIMD row dot excepted), the order the row-major SpMM
/// kernels reproduce per vector.
template <class V, int R, bool Simd, class SumsFn, class AfterFn>
BSPMV_ALWAYS_INLINE void dec_bands(index_t g0, index_t g1, index_t n,
                                   const index_t* BSPMV_RESTRICT rp,
                                   const index_t* BSPMV_RESTRICT col_ind,
                                   const V* BSPMV_RESTRICT val,
                                   const rem_tag_t* BSPMV_RESTRICT tag,
                                   const V* BSPMV_RESTRICT x,
                                   V* BSPMV_RESTRICT y, SumsFn sums,
                                   AfterFn after) {
  constexpr index_t kChunkRows = index_t{R} * kRemChunkBands;
  // sum[r] += row r of the band at row0, rows unrolled at compile time.
  auto row_dots = [&]<bool VecDot, int... r>(std::bool_constant<VecDot>,
                                             std::integer_sequence<int, r...>,
                                             index_t row0, V* sum) {
    ((sum[r] = csr_row_dot<V, VecDot>(val, col_ind, rp[row0 + r],
                                      rp[row0 + r + 1], x, sum[r])),
     ...);
  };
  for (index_t c0 = g0; c0 < g1;) {
    const index_t first = c0 - c0 % kRemChunkBands;  // absolute chunk start
    const index_t c1 = std::min<index_t>(g1, first + kRemChunkBands);
    const index_t base = first * R;
    const index_t base_end = std::min<index_t>(n, base + kChunkRows);
    const index_t lo = c0 * R;
    const index_t hi = std::min<index_t>(n, c1 * R);
    const ChunkWalk walk = chunk_walk<Simd>(rp, base, base_end);
    if (walk.flat) {
      V acc[kChunkRows];
      for (index_t g = c0; g < c1; ++g) {
        BlockSums<V, R> sums_g;
        V* sum = sums_g.data();
        sums(g, sum);
        V* slot = acc + (g - first) * R;
        for (int r = 0; r < R; ++r) slot[r] = sum[r];
      }
      for (index_t k = rp[lo]; k < rp[hi]; ++k) {
        BSPMV_DBG_ASSERT(tag[k] >= lo - base && tag[k] < hi - base);
        acc[tag[k]] += val[k] * x[col_ind[k]];
      }
      for (index_t i = lo; i < hi; ++i) y[i] += acc[i - base];
      for (index_t g = c0; g < c1; ++g) after(g);
    } else {
      for (index_t g = c0; g < c1; ++g) {
        BlockSums<V, R> sums_g;
        V* sum = sums_g.data();
        sums(g, sum);
        const index_t row0 = g * R;
        if (row0 + R <= n) {
          constexpr auto rows = std::make_integer_sequence<int, R>{};
          if (walk.vec_dot)
            row_dots(std::bool_constant<Simd>{}, rows, row0, sum);
          else
            row_dots(std::false_type{}, rows, row0, sum);
          for (int r = 0; r < R; ++r) y[row0 + r] += sum[r];
        } else {
          for (index_t i = row0; i < n; ++i)
            y[i] += csr_row_dot<V, false>(val, col_ind, rp[i], rp[i + 1], x,
                                          sum[i - row0]);
        }
        after(g);
      }
    }
    c0 = c1;
  }
}

}  // namespace bspmv::detail
