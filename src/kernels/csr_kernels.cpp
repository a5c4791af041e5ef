#include "src/kernels/csr_kernels.hpp"

#include <algorithm>
#include <cstdint>

#include "src/kernels/block_madd.hpp"

namespace bspmv {
namespace {

/// Rows per chunk; chunks start at multiples of it in absolute rows.
constexpr index_t kChunkRows = 256;
/// The most entries a flat chunk holds: detail::chunk_walk walks a chunk
/// flat only below kFlatMaxPerLengthChange entries per change of row
/// length, and a chunk has at most kChunkRows - 1 changes. The flat walk
/// checks it in every build, so no change of that rule can overrun its
/// buffer.
constexpr index_t kFlatMaxEntries =
    index_t{detail::kFlatMaxPerLengthChange} * (kChunkRows - 1);
/// How many entries ahead of its current one the flat walk prefetches x
/// (docs/formats.md gives the sweep it was chosen from).
constexpr index_t kPrefetchAhead = 24;

/// y[row0..row1) += A[row0..row1) · x, one chunk of kChunkRows rows at a
/// time, each walked as detail::chunk_walk picks from the whole chunk:
///  - flat: the rows' offsets in the chunk are rebuilt from the row
///    pointers with one store per row and no branch: row i's offset goes
///    to first[e] for its first entry e. Empty rows store to the same
///    slot as the row after them, which stores last, so a running max of
///    first over the entries (offsets rise with the rows) is each entry's
///    row. One loop over the entries adds each product to its row's slot
///    in a chunk-local accumulator, prefetching x kPrefetchAhead entries
///    ahead, and y is written once per row;
///  - per row: a row dot per row, the vector dot on every row in the SIMD
///    kernel (ChunkWalk::vec_dot is not read), so the walk choice changes
///    SIMD results only in flat chunks.
/// The scalar kernel adds each row's products in stored order from 0 on
/// both walks, so its output does not depend on the walk.
template <class V, bool Simd>
void csr_spmv_range(const Csr<V>& a, index_t row0, index_t row1, const V* x,
                    V* y) {
  BSPMV_DBG_ASSERT(row0 >= 0 && row1 <= a.rows() && row0 <= row1);
  const index_t n = a.rows();
  const index_t* BSPMV_RESTRICT rp = a.row_ptr().data();
  const index_t* BSPMV_RESTRICT col_ind = a.col_ind().data();
  const V* BSPMV_RESTRICT val = a.val().data();
  const index_t prefetch_end = rp[n] - kPrefetchAhead;
  for (index_t lo = row0; lo < row1;) {
    const index_t base = lo - lo % kChunkRows;  // absolute chunk start
    const index_t base_end = std::min(n, base + kChunkRows);
    const index_t hi = std::min(row1, base_end);
    if (detail::chunk_walk<Simd>(rp, base, base_end).flat &&
        rp[base_end] - rp[base] <= kFlatMaxEntries) {
      const index_t k0 = rp[lo];
      const index_t k1 = rp[hi];
      // Offsets relative to lo fit a byte: a chunk has 256 rows.
      std::uint8_t first[kFlatMaxEntries + 1];
      std::fill_n(first, k1 - k0 + 1, std::uint8_t{0});
      for (index_t i = lo; i < hi; ++i)
        first[rp[i] - k0] = static_cast<std::uint8_t>(i - lo);
      V acc[kChunkRows];
      std::fill_n(acc, hi - lo, V{0});
      index_t r = 0;  // entry k's row, relative to lo
      auto add = [&](index_t k) {
        r = std::max<index_t>(r, first[k - k0]);
        BSPMV_DBG_ASSERT(r < hi - lo);
        acc[r] += val[k] * x[col_ind[k]];
      };
      index_t k = k0;
      for (const index_t kp = std::min(k1, prefetch_end); k < kp; ++k) {
        __builtin_prefetch(x + col_ind[k + kPrefetchAhead]);
        add(k);
      }
      for (; k < k1; ++k) add(k);
      for (index_t i = lo; i < hi; ++i) y[i] += acc[i - lo];
    } else {
      for (index_t i = lo; i < hi; ++i)
        y[i] += detail::csr_row_dot<V, Simd>(val, col_ind, rp[i], rp[i + 1],
                                             x, V{0});
    }
    lo = hi;
  }
}

}  // namespace

template <class V>
void csr_spmv_scalar(const Csr<V>& a, index_t row0, index_t row1, const V* x,
                     V* y) {
  csr_spmv_range<V, false>(a, row0, row1, x, y);
}

template <class V>
void csr_spmv_simd(const Csr<V>& a, index_t row0, index_t row1, const V* x,
                   V* y) {
  csr_spmv_range<V, true>(a, row0, row1, x, y);
}

template void csr_spmv_scalar(const Csr<float>&, index_t, index_t,
                              const float*, float*);
template void csr_spmv_scalar(const Csr<double>&, index_t, index_t,
                              const double*, double*);
template void csr_spmv_simd(const Csr<float>&, index_t, index_t, const float*,
                            float*);
template void csr_spmv_simd(const Csr<double>&, index_t, index_t,
                            const double*, double*);

}  // namespace bspmv
