#include "src/formats/stats.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/formats/band_scan.hpp"
#include "src/observe/observe.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

namespace {

// One band scan fills both layouts of a blocking (band_scan.hpp).
template <class V, class Blocking>
BlockingStats blocking_stats(const Csr<V>& a, const Blocking& blk,
                             detail::ScanScratch& scratch) {
  BSPMV_OBS_COUNT("select.stats_scans", 1);
  std::vector<std::uint32_t>& count = scratch.count;
  if (count.size() < blk.keys(a.cols())) count.resize(blk.keys(a.cols()), 0);
  BlockingStats st;
  detail::scan_bands(
      a, blk, count, scratch.touched,
      [&](std::size_t, std::size_t, const std::uint32_t* keys,
          std::size_t distinct) {
        st.padded.blocks += distinct;
        for (std::size_t t = 0; t < distinct; ++t) {
          const std::size_t c = count[keys[t]];
          count[keys[t]] = 0;
          st.padded.covered_nnz += c;
          if (c == blk.elems) {
            st.dec.full.blocks += 1;
            st.dec.full.covered_nnz += c;
          } else {
            st.dec.remainder_nnz += c;
          }
        }
      });
  st.padded.stored_values = st.padded.blocks * blk.elems;
  st.dec.full.stored_values = st.dec.full.blocks * blk.elems;
  return st;
}

}  // namespace

namespace detail {

template <class V>
ScanScratch scan_scratch(const Csr<V>& a) {
  const auto& row_ptr = a.row_ptr();
  const auto n = static_cast<std::size_t>(a.rows());
  const auto h = static_cast<std::size_t>(kMaxBlockElems);
  index_t widest = 0;
  for (std::size_t lo = 0; lo < n; ++lo)
    widest = std::max(widest, row_ptr[std::min(n, lo + h)] - row_ptr[lo]);
  ScanScratch s;
  s.count.assign(static_cast<std::size_t>(a.cols()) + h, 0);
  s.touched.resize(static_cast<std::size_t>(widest));
  return s;
}

template <class V>
BlockingStats bcsr_blocking_stats(const Csr<V>& a, BlockShape shape,
                                  ScanScratch& scratch) {
  BSPMV_CHECK(shape.r >= 1 && shape.c >= 1);
  return blocking_stats(a, BcsrBlocking(shape), scratch);
}

template <class V>
BlockingStats bcsd_blocking_stats(const Csr<V>& a, int b,
                                  ScanScratch& scratch) {
  BSPMV_CHECK(b >= 1);
  return blocking_stats(a, BcsdBlocking(b), scratch);
}

}  // namespace detail

template <class V>
BlockingStats bcsr_blocking_stats(const Csr<V>& a, BlockShape shape) {
  detail::ScanScratch scratch;
  return detail::bcsr_blocking_stats(a, shape, scratch);
}

template <class V>
BlockingStats bcsd_blocking_stats(const Csr<V>& a, int b) {
  detail::ScanScratch scratch;
  return detail::bcsd_blocking_stats(a, b, scratch);
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

template detail::ScanScratch detail::scan_scratch(const Csr<float>&);
template detail::ScanScratch detail::scan_scratch(const Csr<double>&);
template BlockingStats detail::bcsr_blocking_stats(const Csr<float>&,
                                                   BlockShape,
                                                   detail::ScanScratch&);
template BlockingStats detail::bcsr_blocking_stats(const Csr<double>&,
                                                   BlockShape,
                                                   detail::ScanScratch&);
template BlockingStats detail::bcsd_blocking_stats(const Csr<float>&, int,
                                                   detail::ScanScratch&);
template BlockingStats detail::bcsd_blocking_stats(const Csr<double>&, int,
                                                   detail::ScanScratch&);
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
