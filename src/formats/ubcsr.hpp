// Unaligned BCSR (Vuduc & Moon [17]) — §II-A: "relaxes the above
// [alignment] restriction, in order to avoid padding". Built as an
// extension beyond the five formats the paper evaluates.
//
// Block rows remain aligned at r-row boundaries (so the output vector is
// still partitioned exactly as in BCSR), but a block's starting *column*
// is arbitrary: within each block row a greedy left-to-right scan anchors
// an r×c block at the leftmost uncovered nonzero column. On matrices
// whose dense sub-blocks are not aligned to c-column boundaries this
// roughly halves BCSR's padding at identical kernel cost.
//
// Arrays: `bval` (r·c values per block, row-major), `bcol_ind` (the
// block's starting COLUMN — not a block-column index), `brow_ptr`.
#pragma once

#include <cstddef>

#include "src/formats/block_shapes.hpp"
#include "src/formats/common.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/stats.hpp"

namespace bspmv {

template <class V>
class Ubcsr {
 public:
  Ubcsr() = default;

  static Ubcsr from_csr(const Csr<V>& a, BlockShape shape);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  BlockShape shape() const { return shape_; }
  index_t block_rows() const { return block_rows_; }
  std::size_t blocks() const { return bcol_ind_.size(); }
  /// Distinct positions held (a repeated column counts once).
  std::size_t nnz() const { return nnz_; }
  std::size_t padding() const { return bval_.size() - nnz_; }

  const aligned_vector<index_t>& brow_ptr() const { return brow_ptr_; }
  /// Starting column of each block (unaligned).
  const aligned_vector<index_t>& bcol_ind() const { return bcol_ind_; }
  const aligned_vector<V>& bval() const { return bval_; }

  std::size_t working_set_bytes() const;

  Coo<V> to_coo() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t block_rows_ = 0;
  BlockShape shape_;
  std::size_t nnz_ = 0;
  aligned_vector<index_t> brow_ptr_;
  aligned_vector<index_t> bcol_ind_;
  aligned_vector<V> bval_;
};

/// Structural statistics of the greedy unaligned blocking (for the
/// models' working-set accounting, without materialising the format).
template <class V>
BlockStats ubcsr_stats(const Csr<V>& a, BlockShape shape);

extern template class Ubcsr<float>;
extern template class Ubcsr<double>;
extern template BlockStats ubcsr_stats(const Csr<float>&, BlockShape);
extern template BlockStats ubcsr_stats(const Csr<double>&, BlockShape);

}  // namespace bspmv
