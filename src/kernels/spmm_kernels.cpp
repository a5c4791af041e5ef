#include "src/kernels/spmm_kernels.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#include "src/formats/block_shapes.hpp"
#include "src/kernels/simd.hpp"
#include "src/util/macros.hpp"

namespace bspmv {
namespace {

/// Largest right-hand-side chunk processed per pass over the matrix.
/// Bounds the stack accumulator buffers while letting any k through:
/// the dispatcher splits k into power-of-two chunks (16, 8, 4, 2, 1),
/// so the chunk width is a compile-time constant — the per-nonzero
/// multiply-add loops fully unroll and the row accumulators stay in
/// registers. k > kRhsChunk simply re-streams the matrix per chunk,
/// still k/kRhsChunk× better than single-vector.
constexpr int kRhsChunk = 16;

/// Most sums (rows × vectors) one pass of a scalar kernel keeps live: a
/// scalar kernel whose granule spans R rows takes chunks of at most
/// kAccumBudget / R vectors. Past that its R·JN sums spill, and scalar
/// 5×1–8×1 BCSR at k = 8 ran 2.2–2.5× slower than in chunks of 4 on
/// TSOPF_RS. The SIMD kernels are not capped: the same cap made them up
/// to 2.2× slower. docs/spmm.md has the sweep.
constexpr int kAccumBudget = 32;

/// Widest chunk a kernel flavour takes for granules of `rows` rows.
constexpr int rhs_chunk_cap(bool simd, int rows) {
  return simd ? kRhsChunk : std::max(1, kAccumBudget / rows);
}

/// Split [0, k) into power-of-two chunks no wider than `max_jn` and call
/// `fn(integral_constant<int, JN>, j0)` for each: one matrix pass per
/// chunk, widest chunks first (k = 7 → 4, 2, 1).
template <class Fn>
void for_each_rhs_chunk(int k, int max_jn, Fn&& fn) {
  int j0 = 0;
  while (j0 < k) {
    const int rem = std::min(k - j0, max_jn);
    if (rem >= 16) {
      fn(std::integral_constant<int, 16>{}, j0);
      j0 += 16;
    } else if (rem >= 8) {
      fn(std::integral_constant<int, 8>{}, j0);
      j0 += 8;
    } else if (rem >= 4) {
      fn(std::integral_constant<int, 4>{}, j0);
      j0 += 4;
    } else if (rem >= 2) {
      fn(std::integral_constant<int, 2>{}, j0);
      j0 += 2;
    } else {
      fn(std::integral_constant<int, 1>{}, j0);
      j0 += 1;
    }
  }
}

/// Write a finished accumulator row to Y: += in accumulate mode, plain
/// store in overwrite mode (the full-multiply fast path).
template <class V, bool Acc, int JN>
BSPMV_ALWAYS_INLINE void flush_row(V* BSPMV_RESTRICT yp,
                                   const V* BSPMV_RESTRICT sp) {
  for (int j = 0; j < JN; ++j) {
    if constexpr (Acc)
      yp[j] += sp[j];
    else
      yp[j] = sp[j];
  }
}

/// sum[0..JN) += v · xp[0..JN). The one inner primitive every SpMM
/// kernel shares: per-j order is a single multiply-add, so the SIMD
/// flavour (lanes = vectors) is bitwise identical to the scalar one.
template <class V, bool Simd, int JN>
BSPMV_ALWAYS_INLINE void axpy_rhs(V v, const V* BSPMV_RESTRICT xp,
                                  V* BSPMV_RESTRICT sum) {
  if constexpr (Simd && JN >= simd_width<V>) {
    constexpr int w = simd_width<V>;
    const simd_t<V> vv = simd_broadcast(v);
    int j = 0;
    for (; j + w <= JN; j += w) {
      simd_t<V> s = simd_loadu(sum + j);
      s += vv * simd_loadu(xp + j);
      simd_storeu(sum + j, s);
    }
    for (; j < JN; ++j) sum[j] += v * xp[j];
  } else {
    for (int j = 0; j < JN; ++j) sum[j] += v * xp[j];
  }
}

/// sum[r·JN ..) += row r of the band of `band` rows starting at row0, of
/// the CSR remainder (rp, col_ind, val, tag). One loop over the band's
/// entries; an entry's row in the band is its tag less row0's (the tags
/// count rows from a chunk start, and bands tile chunks), so no loop runs
/// per row. Each entry joins its row's accumulators in stored order: per
/// vector the order of the scalar decomposed kernel (dec_bands in
/// src/kernels/block_madd.hpp).
template <class V, bool Simd, int JN>
BSPMV_ALWAYS_INLINE void band_remainder_rhs(
    const index_t* BSPMV_RESTRICT rp, const index_t* BSPMV_RESTRICT col_ind,
    const V* BSPMV_RESTRICT val, const rem_tag_t* BSPMV_RESTRICT tag,
    index_t row0, int band, index_t n, const V* BSPMV_RESTRICT X, int k,
    int j0, V* BSPMV_RESTRICT sum) {
  const int off = rem_tag(row0, band);
  const index_t hi = std::min<index_t>(n, row0 + band);
  for (index_t t = rp[row0]; t < rp[hi]; ++t) {
    BSPMV_DBG_ASSERT(tag[t] >= off && tag[t] < off + band);
    axpy_rhs<V, Simd, JN>(
        val[t], X + static_cast<std::size_t>(col_ind[t]) * k + j0,
        sum + (tag[t] - off) * JN);
  }
}

template <class V, bool Simd, bool Acc, int JN>
void csr_spmm_rm_chunk(const Csr<V>& a, index_t row0, index_t row1,
                       const V* BSPMV_RESTRICT X, V* BSPMV_RESTRICT Y,
                       int k, int j0) {
  const index_t* BSPMV_RESTRICT row_ptr = a.row_ptr().data();
  const index_t* BSPMV_RESTRICT col_ind = a.col_ind().data();
  const V* BSPMV_RESTRICT val = a.val().data();

  for (index_t i = row0; i < row1; ++i) {
    V sum[JN] = {};
    const index_t hi = row_ptr[i + 1];
    for (index_t t = row_ptr[i]; t < hi; ++t)
      axpy_rhs<V, Simd, JN>(
          val[t], X + static_cast<std::size_t>(col_ind[t]) * k + j0, sum);
    flush_row<V, Acc, JN>(Y + static_cast<std::size_t>(i) * k + j0, sum);
  }
}

template <class V, int R, int C, bool Simd, bool Acc, int JN>
void bcsr_spmm_rm_range(const Bcsr<V>& a, const Csr<V>* rem,
                        const rem_tag_t* rem_tag, index_t br0, index_t br1,
                        const V* BSPMV_RESTRICT X, V* BSPMV_RESTRICT Y,
                        int k, int j0) {
  BSPMV_DBG_ASSERT(a.shape().r == R && a.shape().c == C);
  const index_t* BSPMV_RESTRICT brow_ptr = a.brow_ptr().data();
  const index_t* BSPMV_RESTRICT bcol_ind = a.bcol_ind().data();
  const V* BSPMV_RESTRICT bval = a.bval().data();
  const index_t n = a.rows();
  const index_t m = a.cols();

  for (index_t br = br0; br < br1; ++br) {
    // One accumulator row per block row, same shape as the scalar
    // kernel's sum[R] — with R, C and JN compile-time the loops unroll
    // and the accumulators stay in registers (the whole point of the
    // bcsr_kernel-style shape dispatch). Padded rows accumulate only
    // padding zeros and are dropped at writeback.
    V sum[R * JN] = {};
    const index_t b1 = brow_ptr[br + 1];
    for (index_t blk = brow_ptr[br]; blk < b1; ++blk) {
      const V* bv = bval + static_cast<std::size_t>(blk) * (R * C);
      const index_t jc0 = bcol_ind[blk] * C;
      if (jc0 + C <= m) {
        for (int rr = 0; rr < R; ++rr)
          for (int cc = 0; cc < C; ++cc)
            axpy_rhs<V, Simd, JN>(
                bv[rr * C + cc],
                X + static_cast<std::size_t>(jc0 + cc) * k + j0,
                sum + rr * JN);
      } else {
        // Right-edge block: clamp the column range (the out-of-range
        // slots hold only padding), exactly like bcsr_spmv_range.
        for (int rr = 0; rr < R; ++rr)
          for (index_t cc = 0; jc0 + cc < m; ++cc)
            axpy_rhs<V, Simd, JN>(
                bv[rr * C + cc],
                X + static_cast<std::size_t>(jc0 + cc) * k + j0,
                sum + rr * JN);
      }
    }
    const index_t row0 = br * R;
    const int rmax = static_cast<int>(
        std::min<index_t>(static_cast<index_t>(R), n - row0));
    if (rem != nullptr)
      band_remainder_rhs<V, Simd, JN>(rem->row_ptr().data(),
                                      rem->col_ind().data(),
                                      rem->val().data(), rem_tag, row0, R, n,
                                      X, k, j0, sum);
    for (int rr = 0; rr < rmax; ++rr)
      flush_row<V, Acc, JN>(Y + static_cast<std::size_t>(row0 + rr) * k + j0,
                            sum + rr * JN);
  }
}

/// Compile-time shape dispatch table per (Simd, JN), mirroring
/// bcsr_kernels_impl.hpp's BcsrTable; entries with r·c > 8 stay null.
template <class V>
using BcsrSpmmFn = void (*)(const Bcsr<V>&, const Csr<V>*, const rem_tag_t*,
                            index_t, index_t, const V*, V*, int, int);

template <class V, bool Simd, bool Acc, int JN>
struct BcsrSpmmTable {
  std::array<std::array<BcsrSpmmFn<V>, kMaxBlockElems>, kMaxBlockElems> fn{};

  constexpr BcsrSpmmTable() { fill_r<1>(); }

 private:
  template <int R>
  constexpr void fill_r() {
    fill_c<R, 1>();
    if constexpr (R < kMaxBlockElems) fill_r<R + 1>();
  }
  template <int R, int C>
  constexpr void fill_c() {
    if constexpr (R * C <= kMaxBlockElems)
      fn[R - 1][C - 1] = &bcsr_spmm_rm_range<V, R, C, Simd, Acc, JN>;
    if constexpr (C < kMaxBlockElems) fill_c<R, C + 1>();
  }
};

template <class V, bool Simd, bool Acc, int JN>
void bcsr_spmm_rm_chunk(const Bcsr<V>& a, const Csr<V>* rem,
                        const rem_tag_t* rem_tag, index_t br0, index_t br1,
                        const V* X, V* Y, int k, int j0) {
  static constexpr BcsrSpmmTable<V, Simd, Acc, JN> kTable{};
  const BlockShape shape = a.shape();
  BSPMV_CHECK_MSG(shape.r >= 1 && shape.r <= kMaxBlockElems &&
                      shape.c >= 1 && shape.c <= kMaxBlockElems &&
                      shape.elems() <= kMaxBlockElems,
                  "unsupported BCSR block shape " + shape.to_string());
  const BcsrSpmmFn<V> fn =
      kTable.fn[static_cast<std::size_t>(shape.r - 1)]
               [static_cast<std::size_t>(shape.c - 1)];
  BSPMV_DBG_ASSERT(fn != nullptr);
  fn(a, rem, rem_tag, br0, br1, X, Y, k, j0);
}

template <class V, bool Simd, bool Acc, int JN>
void bcsd_spmm_rm_chunk(const Bcsd<V>& a, const Csr<V>* rem,
                        const rem_tag_t* rem_tag, index_t seg0, index_t seg1,
                        const V* BSPMV_RESTRICT X, V* BSPMV_RESTRICT Y,
                        int k, int j0) {
  const index_t* BSPMV_RESTRICT brow_ptr = a.brow_ptr().data();
  const index_t* BSPMV_RESTRICT bcol_ind = a.bcol_ind().data();
  const index_t* BSPMV_RESTRICT nfull = a.full_diags().data();
  const V* BSPMV_RESTRICT bval = a.bval().data();
  const int b = a.b();
  const index_t n = a.rows();
  const index_t m = a.cols();

  for (index_t s = seg0; s < seg1; ++s) {
    const index_t base = s * b;
    const index_t d0 = brow_ptr[s];
    const index_t d1 = brow_ptr[s + 1];
    const index_t dfull = d0 + nfull[s];

    if (dfull > d0 || rem != nullptr) {
      // Fast path mirrors bcsd_spmv_range: fully in-range diagonals, then
      // the segment's remainder rows, accumulate into a per-segment
      // buffer, flushed once (overwrite mode stores instead of adding).
      V sum[kMaxBlockElems * JN] = {};
      for (index_t d = d0; d < dfull; ++d) {
        const V* bv = bval + static_cast<std::size_t>(d) * b;
        const std::size_t xbase = static_cast<std::size_t>(bcol_ind[d]);
        for (int e = 0; e < b; ++e)
          axpy_rhs<V, Simd, JN>(
              bv[e], X + (xbase + static_cast<std::size_t>(e)) * k + j0,
              sum + e * JN);
      }
      // Any full diagonal implies base + b <= n; only a remainder-only
      // tail segment is shorter. In overwrite mode the flush initialises
      // every row the boundary loop below may touch.
      const int rows = static_cast<int>(std::min<index_t>(b, n - base));
      if (rem != nullptr)
        band_remainder_rhs<V, Simd, JN>(rem->row_ptr().data(),
                                        rem->col_ind().data(),
                                        rem->val().data(), rem_tag, base, b,
                                        n, X, k, j0, sum);
      for (int e = 0; e < rows; ++e)
        flush_row<V, Acc, JN>(Y + static_cast<std::size_t>(base + e) * k + j0,
                              sum + e * JN);
    } else if constexpr (!Acc) {
      // No full diagonal flushed this segment: in overwrite mode the
      // boundary accumulation below needs zeroed rows to land on.
      const index_t rmax = std::min<index_t>(base + b, n);
      for (index_t r = base; r < rmax; ++r) {
        V* yp = Y + static_cast<std::size_t>(r) * k + j0;
        for (int j = 0; j < JN; ++j) yp[j] = V(0);
      }
    }

    // Boundary diagonals accumulate straight into Y, clamped, same as
    // the single-vector kernel.
    for (index_t d = dfull; d < d1; ++d) {
      const V* bv = bval + static_cast<std::size_t>(d) * b;
      const long long jc0 = bcol_ind[d];
      const int emin = static_cast<int>(std::max<long long>(0, -jc0));
      const int emax = static_cast<int>(std::min<long long>(
          {b, static_cast<long long>(n) - base,
           static_cast<long long>(m) - jc0}));
      for (int e = emin; e < emax; ++e)
        axpy_rhs<V, Simd, JN>(
            bv[e], X + static_cast<std::size_t>(jc0 + e) * k + j0,
            Y + static_cast<std::size_t>(base + e) * k + j0);
    }
  }
}

template <class V, bool Simd, bool Acc, int JN>
void vbl_spmm_rm_chunk(const Vbl<V>& a, const V* BSPMV_RESTRICT X,
                       V* BSPMV_RESTRICT Y, int k, int j0) {
  const index_t* BSPMV_RESTRICT row_ptr = a.row_ptr().data();
  const index_t* BSPMV_RESTRICT bcol_ind = a.bcol_ind().data();
  const blk_size_t* BSPMV_RESTRICT blk_size = a.blk_size().data();
  const V* BSPMV_RESTRICT val = a.val().data();
  const index_t n = a.rows();

  std::size_t blk = 0;
  for (index_t i = 0; i < n; ++i) {
    V sum[JN] = {};
    index_t t = row_ptr[i];
    const index_t hi = row_ptr[i + 1];
    while (t < hi) {
      const std::size_t xbase = static_cast<std::size_t>(bcol_ind[blk]);
      const int size = blk_size[blk];
      for (int e = 0; e < size; ++e)
        axpy_rhs<V, Simd, JN>(
            val[t + e], X + (xbase + static_cast<std::size_t>(e)) * k + j0,
            sum);
      t += size;
      ++blk;
    }
    flush_row<V, Acc, JN>(Y + static_cast<std::size_t>(i) * k + j0, sum);
  }
  BSPMV_DBG_ASSERT(blk == a.blocks());
}

static_assert(kRhsChunk == 16, "dispatcher chunks assume kRhsChunk == 16");

/// Expand the runtime (simd, accumulate) pair into the four
/// compile-time kernel flavours inside a chunk-dispatch lambda; `rows`
/// is the granule height the accumulator budget divides.
#define BSPMV_SPMM_DISPATCH(rows, chunk_fn, ...)                            \
  for_each_rhs_chunk(k, rhs_chunk_cap(simd, rows), [&](auto jn, int j0) {   \
    if (simd) {                                                             \
      if (accumulate)                                                       \
        chunk_fn<V, true, true, jn()>(__VA_ARGS__, k, j0);                  \
      else                                                                  \
        chunk_fn<V, true, false, jn()>(__VA_ARGS__, k, j0);                 \
    } else {                                                                \
      if (accumulate)                                                       \
        chunk_fn<V, false, true, jn()>(__VA_ARGS__, k, j0);                 \
      else                                                                  \
        chunk_fn<V, false, false, jn()>(__VA_ARGS__, k, j0);                \
    }                                                                       \
  })

}  // namespace

template <class V>
void csr_spmm_rm(const Csr<V>& a, index_t row0, index_t row1, const V* X,
                 V* Y, int k, bool simd, bool accumulate) {
  BSPMV_DBG_ASSERT(row0 >= 0 && row1 <= a.rows() && row0 <= row1 && k >= 1);
  // Chunks cover disjoint j-columns, so the accumulate flag applies
  // uniformly: each Y element belongs to exactly one chunk.
  BSPMV_SPMM_DISPATCH(1, csr_spmm_rm_chunk, a, row0, row1, X, Y);
}

template <class V>
void bcsr_spmm_rm(const Bcsr<V>& a, index_t br0, index_t br1, const V* X,
                  V* Y, int k, bool simd, bool accumulate,
                  const Csr<V>* rem, const rem_tag_t* rem_tag) {
  BSPMV_DBG_ASSERT(br0 >= 0 && br1 <= a.block_rows() && br0 <= br1 && k >= 1);
  BSPMV_DBG_ASSERT(rem == nullptr || rem->rows() == a.rows());
  BSPMV_SPMM_DISPATCH(a.shape().r, bcsr_spmm_rm_chunk, a, rem, rem_tag, br0,
                      br1, X, Y);
}

template <class V>
void bcsd_spmm_rm(const Bcsd<V>& a, index_t seg0, index_t seg1, const V* X,
                  V* Y, int k, bool simd, bool accumulate,
                  const Csr<V>* rem, const rem_tag_t* rem_tag) {
  BSPMV_DBG_ASSERT(seg0 >= 0 && seg1 <= a.segments() && seg0 <= seg1 &&
                   k >= 1);
  BSPMV_DBG_ASSERT(rem == nullptr || rem->rows() == a.rows());
  BSPMV_SPMM_DISPATCH(a.b(), bcsd_spmm_rm_chunk, a, rem, rem_tag, seg0, seg1,
                      X, Y);
}

template <class V>
void vbl_spmm_rm(const Vbl<V>& a, const V* X, V* Y, int k, bool simd,
                 bool accumulate) {
  BSPMV_DBG_ASSERT(k >= 1);
  BSPMV_SPMM_DISPATCH(1, vbl_spmm_rm_chunk, a, X, Y);
}

#undef BSPMV_SPMM_DISPATCH

#define BSPMV_INST(V)                                                       \
  template void csr_spmm_rm(const Csr<V>&, index_t, index_t, const V*, V*,  \
                            int, bool, bool);                               \
  template void bcsr_spmm_rm(const Bcsr<V>&, index_t, index_t, const V*,    \
                             V*, int, bool, bool, const Csr<V>*,            \
                             const rem_tag_t*);                             \
  template void bcsd_spmm_rm(const Bcsd<V>&, index_t, index_t, const V*,    \
                             V*, int, bool, bool, const Csr<V>*,            \
                             const rem_tag_t*);                             \
  template void vbl_spmm_rm(const Vbl<V>&, const V*, V*, int, bool, bool);
BSPMV_INST(float)
BSPMV_INST(double)
#undef BSPMV_INST

}  // namespace bspmv
