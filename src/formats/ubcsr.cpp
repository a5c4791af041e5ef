#include "src/formats/ubcsr.hpp"

#include <algorithm>
#include <vector>

#include "src/formats/conversion_guard.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

namespace {

// Greedy unaligned anchors for one block row: the leftmost uncovered
// nonzero column starts a block of width c; `cols` must be sorted and
// deduplicated. Returns the anchor columns.
void greedy_anchors(const std::vector<index_t>& cols, int c,
                    std::vector<index_t>& anchors) {
  anchors.clear();
  std::size_t i = 0;
  while (i < cols.size()) {
    const index_t j0 = cols[i];
    anchors.push_back(j0);
    while (i < cols.size() && cols[i] < j0 + c) ++i;
  }
}

template <class V>
void collect_band_cols(const Csr<V>& a, index_t base, index_t row_end,
                       std::vector<index_t>& cols) {
  cols.clear();
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  for (index_t i = base; i < row_end; ++i)
    for (index_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      cols.push_back(col_ind[static_cast<std::size_t>(k)]);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
}

}  // namespace

template <class V>
Ubcsr<V> Ubcsr<V>::from_csr(const Csr<V>& a, BlockShape shape) {
  BSPMV_CHECK_MSG(shape.r >= 1 && shape.c >= 1, "block shape must be >= 1x1");
  const index_t n = a.rows();
  const index_t r = shape.r;
  const index_t c = shape.c;
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  const auto& val = a.val();

  Ubcsr out;
  out.rows_ = n;
  out.cols_ = a.cols();
  out.shape_ = shape;
  out.block_rows_ = (n + r - 1) / r;
  out.brow_ptr_.assign(static_cast<std::size_t>(out.block_rows_) + 1, 0);

  std::vector<index_t> cols;
  std::vector<index_t> anchors;

  // Pass 1: count greedy anchors per block row.
  for (index_t br = 0; br < out.block_rows_; ++br) {
    const index_t row_end = std::min<index_t>(n, (br + 1) * r);
    collect_band_cols(a, br * r, row_end, cols);
    greedy_anchors(cols, c, anchors);
    out.brow_ptr_[static_cast<std::size_t>(br) + 1] =
        out.brow_ptr_[static_cast<std::size_t>(br)] +
        static_cast<index_t>(anchors.size());
  }

  const std::size_t nblocks = static_cast<std::size_t>(out.brow_ptr_.back());
  const std::size_t stored = ConversionGuard::mul(
      "ubcsr", nblocks,
      static_cast<std::size_t>(r) * static_cast<std::size_t>(c));
  ConversionGuard::check("ubcsr", stored, a.nnz(), sizeof(V),
                         (out.brow_ptr_.size() + nblocks) * sizeof(index_t));
  out.bcol_ind_.resize(nblocks);
  out.bval_.assign(stored, V{0});

  // Pass 2: record anchors and scatter values. nnz counts distinct
  // positions: a row out of column order may repeat a column, whose copies
  // sum into one stored value.
  std::size_t repeats = 0;
  std::vector<index_t> row_cols;
  for (index_t br = 0; br < out.block_rows_; ++br) {
    const index_t row_end = std::min<index_t>(n, (br + 1) * r);
    collect_band_cols(a, br * r, row_end, cols);
    greedy_anchors(cols, c, anchors);

    const std::size_t first = static_cast<std::size_t>(
        out.brow_ptr_[static_cast<std::size_t>(br)]);
    std::copy(anchors.begin(), anchors.end(), out.bcol_ind_.begin() + first);

    for (index_t i = br * r; i < row_end; ++i) {
      const index_t k0 = row_ptr[static_cast<std::size_t>(i)];
      const index_t k1 = row_ptr[static_cast<std::size_t>(i) + 1];
      bool increasing = true;
      for (index_t k = k0; k < k1; ++k) {
        const index_t j = col_ind[static_cast<std::size_t>(k)];
        increasing &= k == k0 || j > col_ind[static_cast<std::size_t>(k) - 1];
        // The block containing j is the one with the greatest anchor <= j
        // (anchors are disjoint intervals of width c covering all cols).
        const auto it =
            std::upper_bound(anchors.begin(), anchors.end(), j) - 1;
        BSPMV_DBG_ASSERT(it >= anchors.begin() && j >= *it && j < *it + c);
        const std::size_t blk =
            first + static_cast<std::size_t>(it - anchors.begin());
        const std::size_t off =
            static_cast<std::size_t>(i - br * r) * static_cast<std::size_t>(c) +
            static_cast<std::size_t>(j - *it);
        out.bval_[blk * static_cast<std::size_t>(r) *
                      static_cast<std::size_t>(c) +
                  off] += val[static_cast<std::size_t>(k)];
      }
      if (increasing) continue;
      row_cols.assign(col_ind.begin() + k0, col_ind.begin() + k1);
      std::sort(row_cols.begin(), row_cols.end());
      repeats += static_cast<std::size_t>(
          row_cols.end() - std::unique(row_cols.begin(), row_cols.end()));
    }
  }
  out.nnz_ = a.nnz() - repeats;
  return out;
}

template <class V>
std::size_t Ubcsr<V>::working_set_bytes() const {
  return bval_.size() * sizeof(V) + bcol_ind_.size() * sizeof(index_t) +
         brow_ptr_.size() * sizeof(index_t) +
         static_cast<std::size_t>(cols_) * sizeof(V) +
         static_cast<std::size_t>(rows_) * sizeof(V);
}

template <class V>
Coo<V> Ubcsr<V>::to_coo() const {
  Coo<V> coo(rows_, cols_);
  const index_t r = shape_.r;
  const index_t c = shape_.c;
  for (index_t br = 0; br < block_rows_; ++br) {
    for (index_t blk = brow_ptr_[static_cast<std::size_t>(br)];
         blk < brow_ptr_[static_cast<std::size_t>(br) + 1]; ++blk) {
      const index_t j0 = bcol_ind_[static_cast<std::size_t>(blk)];
      const V* bv = bval_.data() + static_cast<std::size_t>(blk) *
                                       static_cast<std::size_t>(r) *
                                       static_cast<std::size_t>(c);
      for (index_t rr = 0; rr < r; ++rr) {
        for (index_t cc = 0; cc < c; ++cc) {
          const V v = bv[rr * c + cc];
          const index_t i = br * r + rr;
          const index_t j = j0 + cc;
          if (v != V{0} && i < rows_ && j < cols_) coo.add(i, j, v);
        }
      }
    }
  }
  return coo;
}

template <class V>
BlockStats ubcsr_stats(const Csr<V>& a, BlockShape shape) {
  BSPMV_CHECK(shape.r >= 1 && shape.c >= 1);
  const index_t n = a.rows();
  BlockStats st;
  std::vector<index_t> cols;
  std::vector<index_t> anchors;
  for (index_t br = 0; br * shape.r < n; ++br) {
    const index_t row_end = std::min<index_t>(n, (br + 1) * shape.r);
    collect_band_cols(a, br * shape.r, row_end, cols);
    greedy_anchors(cols, shape.c, anchors);
    st.blocks += anchors.size();
  }
  st.stored_values = st.blocks * static_cast<std::size_t>(shape.elems());
  st.covered_nnz = a.nnz();
  return st;
}

template class Ubcsr<float>;
template class Ubcsr<double>;
template BlockStats ubcsr_stats(const Csr<float>&, BlockShape);
template BlockStats ubcsr_stats(const Csr<double>&, BlockShape);

}  // namespace bspmv
