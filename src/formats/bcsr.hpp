// Blocked Compressed Sparse Row (Im & Yelick [8]) — §II-A.
//
// Stores aligned fixed-size r×c blocks: a block always starts at (i, j)
// with mod(i,r) = 0 and mod(j,c) = 0, and missing positions inside a block
// are padded with explicit zeros. Arrays per the paper: `bval` (block
// values, row-major inside each block, blocks laid out block-row-wise),
// `bcol_ind` (block-column index per block), `brow_ptr` (first block of
// each block row).
#pragma once

#include <cstddef>

#include "src/formats/block_shapes.hpp"
#include "src/formats/common.hpp"
#include "src/formats/csr.hpp"

namespace bspmv {

template <class V>
class BcsrDec;

template <class V>
class Bcsr {
 public:
  Bcsr() = default;

  /// Convert from CSR, padding partially-filled aligned blocks with zeros.
  static Bcsr from_csr(const Csr<V>& a, BlockShape shape);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  BlockShape shape() const { return shape_; }
  /// Number of block rows: ceil(rows / r).
  index_t block_rows() const { return block_rows_; }
  std::size_t blocks() const { return bcol_ind_.size(); }
  std::size_t nnz() const { return nnz_; }
  /// Explicit zeros stored to complete partially-filled blocks.
  std::size_t padding() const { return bval_.size() - nnz_; }

  const aligned_vector<index_t>& brow_ptr() const { return brow_ptr_; }
  const aligned_vector<index_t>& bcol_ind() const { return bcol_ind_; }
  const aligned_vector<V>& bval() const { return bval_; }

  /// Working set in bytes (matrix arrays + x + y), per the paper's models.
  std::size_t working_set_bytes() const;

  /// Round-trip to COO, dropping padded zeros (used in tests/converters).
  Coo<V> to_coo() const;

 private:
  friend class BcsrDec<V>;
  /// from_csr; with `remainder`, only completely full blocks are stored
  /// and the other nonzeros go to *remainder, their row tags to *rem_tags
  /// (BCSR-DEC).
  static Bcsr build(const Csr<V>& a, BlockShape shape, Csr<V>* remainder,
                    aligned_vector<std::uint8_t>* rem_tags);

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t block_rows_ = 0;
  BlockShape shape_;
  std::size_t nnz_ = 0;
  aligned_vector<index_t> brow_ptr_;
  aligned_vector<index_t> bcol_ind_;
  aligned_vector<V> bval_;
};

extern template class Bcsr<float>;
extern template class Bcsr<double>;

}  // namespace bspmv
