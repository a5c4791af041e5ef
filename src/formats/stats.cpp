#include "src/formats/stats.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/observe/observe.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

namespace {

// Shared engine for BCSR/BCSD statistics: one pass fills both layouts.
//
// Both formats group rows into aligned bands of height `band` (r for BCSR,
// b for BCSD) and map every nonzero within a band to a block key in
// [0, keys): the block column j/c for BCSR, the shifted diagonal start
// j - (i - band_start) + (b - 1) for BCSD. Blocks are the distinct keys
// within a band; a block is "full" when its key occurs `block_elems` times.
// Keys are counted in a dense array, so the counts do not depend on column
// order, and a duplicate column counts as often as it occurs. Each key's
// first occurrence in a band is appended to `touched` (branch-free: every
// key is written, the end advances only on a first occurrence), which is
// drained and its counters reset at the end of the band.
template <class V, class KeyFn>
BlockingStats scan_bands(const Csr<V>& a, int band, std::size_t keys,
                         KeyFn key_of, std::size_t block_elems) {
  BSPMV_OBS_COUNT("select.stats_scans", 1);
  const index_t n = a.rows();
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  std::vector<std::uint32_t> count(keys, 0);
  std::vector<std::uint32_t> touched;
  BlockingStats st;

  for (index_t base = 0; base < n; base += band) {
    const auto lo = static_cast<std::size_t>(base);
    const auto hi = static_cast<std::size_t>(std::min<index_t>(n, base + band));
    const auto band_nnz = static_cast<std::size_t>(row_ptr[hi] - row_ptr[lo]);
    if (touched.size() < band_nnz) touched.resize(band_nnz);
    std::size_t blocks = 0;
    for (std::size_t i = lo; i < hi; ++i)
      for (auto k = static_cast<std::size_t>(row_ptr[i]);
           k < static_cast<std::size_t>(row_ptr[i + 1]); ++k) {
        const std::uint32_t key =
            key_of(static_cast<index_t>(i - lo), col_ind[k]);
        BSPMV_DBG_ASSERT(key < keys);
        touched[blocks] = key;
        blocks += count[key]++ == 0;
      }

    st.padded.blocks += blocks;
    for (std::size_t t = 0; t < blocks; ++t) {
      const std::size_t c = count[touched[t]];
      count[touched[t]] = 0;
      st.padded.covered_nnz += c;
      if (c == block_elems) {
        st.dec.full.blocks += 1;
        st.dec.full.covered_nnz += c;
      } else {
        st.dec.remainder_nnz += c;
      }
    }
  }
  st.padded.stored_values = st.padded.blocks * block_elems;
  st.dec.full.stored_values = st.dec.full.blocks * block_elems;
  return st;
}

}  // namespace

template <class V>
BlockingStats bcsr_blocking_stats(const Csr<V>& a, BlockShape shape) {
  BSPMV_CHECK(shape.r >= 1 && shape.c >= 1);
  const auto c = static_cast<std::uint32_t>(shape.c);
  return scan_bands(
      a, shape.r, static_cast<std::size_t>(a.cols()) / c + 1,
      [c](index_t, index_t j) { return static_cast<std::uint32_t>(j) / c; },
      static_cast<std::size_t>(shape.elems()));
}

template <class V>
BlockingStats bcsd_blocking_stats(const Csr<V>& a, int b) {
  BSPMV_CHECK(b >= 1);
  return scan_bands(
      a, b, static_cast<std::size_t>(a.cols()) + static_cast<std::size_t>(b),
      [b](index_t di, index_t j) {
        return static_cast<std::uint32_t>(j) +
               static_cast<std::uint32_t>(b - 1 - di);
      },
      static_cast<std::size_t>(b));
}

template <class V>
BlockStats bcsr_stats(const Csr<V>& a, BlockShape shape) {
  return bcsr_blocking_stats(a, shape).padded;
}

template <class V>
DecompStats bcsr_dec_stats(const Csr<V>& a, BlockShape shape) {
  return bcsr_blocking_stats(a, shape).dec;
}

template <class V>
BlockStats bcsd_stats(const Csr<V>& a, int b) {
  return bcsd_blocking_stats(a, b).padded;
}

template <class V>
DecompStats bcsd_dec_stats(const Csr<V>& a, int b) {
  return bcsd_blocking_stats(a, b).dec;
}

template <class V>
std::size_t vbl_block_count(const Csr<V>& a) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  std::size_t blocks = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const index_t lo = row_ptr[static_cast<std::size_t>(i)];
    const index_t hi = row_ptr[static_cast<std::size_t>(i) + 1];
    index_t k = lo;
    while (k < hi) {
      index_t run = 1;
      while (k + run < hi &&
             col_ind[static_cast<std::size_t>(k + run)] ==
                 col_ind[static_cast<std::size_t>(k + run - 1)] + 1 &&
             run < kVblMaxBlock)
        ++run;
      ++blocks;
      k += run;
    }
  }
  return blocks;
}

template BlockingStats bcsr_blocking_stats(const Csr<float>&, BlockShape);
template BlockingStats bcsr_blocking_stats(const Csr<double>&, BlockShape);
template BlockingStats bcsd_blocking_stats(const Csr<float>&, int);
template BlockingStats bcsd_blocking_stats(const Csr<double>&, int);
template BlockStats bcsr_stats(const Csr<float>&, BlockShape);
template BlockStats bcsr_stats(const Csr<double>&, BlockShape);
template DecompStats bcsr_dec_stats(const Csr<float>&, BlockShape);
template DecompStats bcsr_dec_stats(const Csr<double>&, BlockShape);
template BlockStats bcsd_stats(const Csr<float>&, int);
template BlockStats bcsd_stats(const Csr<double>&, int);
template DecompStats bcsd_dec_stats(const Csr<float>&, int);
template DecompStats bcsd_dec_stats(const Csr<double>&, int);
template std::size_t vbl_block_count(const Csr<float>&);
template std::size_t vbl_block_count(const Csr<double>&);

}  // namespace bspmv
