#include "src/dist/halo_format.hpp"

#include <algorithm>

#include "src/util/macros.hpp"

namespace bspmv::dist {

template <class V>
HaloDec<V>::HaloDec(Csr<V> local, Csr<V> halo,
                    std::vector<index_t> halo_cols)
    : local_(std::move(local)),
      halo_(std::move(halo)),
      halo_cols_(std::move(halo_cols)) {
  BSPMV_CHECK_MSG(local_.rows() == halo_.rows(),
                  "halo_dec parts disagree on rows");
  BSPMV_CHECK_MSG(
      halo_cols_.size() == static_cast<std::size_t>(halo_.cols()),
      "halo_dec halo_cols does not match the halo submatrix width");
  BSPMV_CHECK_MSG(std::is_sorted(halo_cols_.begin(), halo_cols_.end()),
                  "halo_dec halo_cols must be sorted");
}

template <class V>
HaloDec<V> HaloDec<V>::split(const Csr<V>& a, index_t row_begin,
                             index_t row_end, index_t x_begin,
                             index_t x_end) {
  BSPMV_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= a.rows());
  BSPMV_CHECK(0 <= x_begin && x_begin <= x_end && x_end <= a.cols());
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  const auto& val = a.val();
  const index_t rows = row_end - row_begin;

  // Pass 1: the compact halo index space (sorted unique external cols).
  std::vector<index_t> halo_cols;
  for (std::size_t k = static_cast<std::size_t>(row_ptr[row_begin]);
       k < static_cast<std::size_t>(row_ptr[row_end]); ++k) {
    const index_t c = col_ind[k];
    if (c < x_begin || c >= x_end) halo_cols.push_back(c);
  }
  std::sort(halo_cols.begin(), halo_cols.end());
  halo_cols.erase(std::unique(halo_cols.begin(), halo_cols.end()),
                  halo_cols.end());

  // Pass 2: split each row's entries into the two submatrices; CSR order
  // within each part is preserved, so the per-row accumulation order of
  // local-then-halo is deterministic.
  aligned_vector<index_t> lrp(static_cast<std::size_t>(rows) + 1, 0);
  aligned_vector<index_t> hrp(static_cast<std::size_t>(rows) + 1, 0);
  aligned_vector<index_t> lci, hci;
  aligned_vector<V> lv, hv;
  for (index_t i = 0; i < rows; ++i) {
    for (std::size_t k =
             static_cast<std::size_t>(row_ptr[row_begin + i]);
         k < static_cast<std::size_t>(row_ptr[row_begin + i + 1]); ++k) {
      const index_t c = col_ind[k];
      if (c >= x_begin && c < x_end) {
        lci.push_back(c - x_begin);
        lv.push_back(val[k]);
      } else {
        const auto it =
            std::lower_bound(halo_cols.begin(), halo_cols.end(), c);
        hci.push_back(static_cast<index_t>(it - halo_cols.begin()));
        hv.push_back(val[k]);
      }
    }
    lrp[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(lci.size());
    hrp[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(hci.size());
  }

  Csr<V> local(rows, x_end - x_begin, std::move(lrp), std::move(lci),
               std::move(lv));
  Csr<V> halo(rows, static_cast<index_t>(halo_cols.size()), std::move(hrp),
              std::move(hci), std::move(hv));
  return HaloDec<V>(std::move(local), std::move(halo),
                    std::move(halo_cols));
}

template class HaloDec<double>;

}  // namespace bspmv::dist
