// Template bodies for the BCSR block kernels; included by the per-type
// instantiation units (bcsr_kernels_double.cpp / bcsr_kernels_float.cpp)
// so each value type compiles in its own translation unit. The BCSR-DEC
// flavour runs the same block body inside dec_bands' chunked remainder
// walk (src/kernels/block_madd.hpp).
#pragma once

#include <algorithm>
#include <array>

#include "src/formats/block_shapes.hpp"
#include "src/kernels/bcsr_kernels.hpp"
#include "src/kernels/block_madd.hpp"

namespace bspmv {
namespace detail {

/// One body per shape for BCSR and BCSR-DEC: with Dec the bands go
/// through dec_bands, which adds the CSR remainder rows into the block
/// sums before the single write of y (a padded BCSR compiles that step
/// out and ignores rem and rem_tag).
template <class V, int R, int C, bool Simd, bool Dec>
void bcsr_spmv_range(const Bcsr<V>& a, const Csr<V>* rem,
                     const rem_tag_t* rem_tag, index_t br0, index_t br1,
                     const V* BSPMV_RESTRICT x, V* BSPMV_RESTRICT y) {
  BSPMV_DBG_ASSERT(a.shape().r == R && a.shape().c == C);
  BSPMV_DBG_ASSERT(br0 >= 0 && br1 <= a.block_rows() && br0 <= br1);
  BSPMV_DBG_ASSERT(!Dec || (rem != nullptr && rem->rows() == a.rows() &&
                            (rem_tag != nullptr || rem->nnz() == 0)));
  const index_t* BSPMV_RESTRICT brow_ptr = a.brow_ptr().data();
  const index_t* BSPMV_RESTRICT bcol_ind = a.bcol_ind().data();
  const V* BSPMV_RESTRICT bval = a.bval().data();
  const index_t n = a.rows();
  const index_t m = a.cols();

  // sum[0..R) += block row br's blocks.
  auto block_sums = [&](index_t br, V* BSPMV_RESTRICT sum) {
    const index_t b0 = brow_ptr[br];
    const index_t b1 = brow_ptr[br + 1];
    for (index_t blk = b0; blk < b1; ++blk) {
      const V* bv = bval + static_cast<std::size_t>(blk) * (R * C);
      const index_t j0 = bcol_ind[blk] * C;
      if (j0 + C <= m) {
        if constexpr (Simd)
          block_madd_simd<V, R, C>(bv, x + j0, sum);
        else
          block_madd_scalar<V, R, C>(bv, x + j0, sum);
      } else {
        // Right-edge block (only the last block of a block row can poke
        // past the matrix): clamp the column range — the out-of-range
        // positions hold only padding zeros.
        for (int r = 0; r < R; ++r)
          for (index_t cc = 0; j0 + cc < m; ++cc)
            sum[r] += bv[r * C + cc] * x[j0 + cc];
      }
    }
  };
  if constexpr (Dec) {
    dec_bands<V, R, Simd>(br0, br1, n, rem->row_ptr().data(),
                          rem->col_ind().data(), rem->val().data(), rem_tag,
                          x, y, block_sums, [](index_t) {});
  } else {
    // Only the last block row can be a partial tail (never at R = 1); its
    // own loop keeps the full-band path free of runtime row counts.
    const index_t full_end = std::min(br1, n / R);
    index_t br = br0;
    for (; br < full_end; ++br) {
      BlockSums<V, R> sums;
      V* sum = sums.data();
      block_sums(br, sum);
      for (int r = 0; r < R; ++r) y[br * R + r] += sum[r];
    }
    if constexpr (R > 1) {
      for (; br < br1; ++br) {
        // Padded rows beyond n carry only zeros.
        BlockSums<V, R> sums;
        V* sum = sums.data();
        block_sums(br, sum);
        for (index_t i = br * R; i < n; ++i) y[i] += sum[i - br * R];
      }
    }
  }
}

/// Compile-time 8×8 dispatch table; entries with r·c > 8 stay null.
template <class V, bool Simd, bool Dec>
struct BcsrTable {
  std::array<std::array<BcsrKernelFn<V>, kMaxBlockElems>, kMaxBlockElems> fn{};

  constexpr BcsrTable() {
    fill_r<1>();
  }

 private:
  template <int R>
  constexpr void fill_r() {
    fill_c<R, 1>();
    if constexpr (R < kMaxBlockElems) fill_r<R + 1>();
  }
  template <int R, int C>
  constexpr void fill_c() {
    if constexpr (R * C <= kMaxBlockElems)
      fn[R - 1][C - 1] = &bcsr_spmv_range<V, R, C, Simd, Dec>;
    if constexpr (C < kMaxBlockElems) fill_c<R, C + 1>();
  }
};

}  // namespace detail

template <class V>
BcsrKernelFn<V> bcsr_kernel(BlockShape shape, bool simd, bool decomposed) {
  static constexpr detail::BcsrTable<V, false, false> kScalar{};
  static constexpr detail::BcsrTable<V, true, false> kSimd{};
  static constexpr detail::BcsrTable<V, false, true> kScalarDec{};
  static constexpr detail::BcsrTable<V, true, true> kSimdDec{};
  BSPMV_CHECK_MSG(shape.r >= 1 && shape.r <= kMaxBlockElems &&
                      shape.c >= 1 && shape.c <= kMaxBlockElems &&
                      shape.elems() <= kMaxBlockElems,
                  "unsupported BCSR block shape " + shape.to_string());
  const auto& table = decomposed ? (simd ? kSimdDec.fn : kScalarDec.fn)
                                  : (simd ? kSimd.fn : kScalar.fn);
  auto fn = table[static_cast<std::size_t>(
      shape.r - 1)][static_cast<std::size_t>(shape.c - 1)];
  BSPMV_DBG_ASSERT(fn != nullptr);
  return fn;
}

}  // namespace bspmv
