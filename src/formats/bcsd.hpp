// Blocked Compressed Sparse Diagonal — §II-A.
//
// The BCSD format exploits small diagonal sub-blocks: the matrix is split
// into aligned row segments of height b (a block starts at (i, j) with
// mod(i,b) = 0) and every diagonal run inside a segment is stored as one
// length-b diagonal block, padded with zeros where elements are missing.
// Arrays per the paper: `bval` (b values per diagonal block), `bcol_ind`
// (starting column of each diagonal), `brow_ptr` (first diagonal of each
// segment).
//
// A diagonal anchored near the matrix edge may start at a negative column
// (j0 = j − (i − segment_base) < 0) or extend past the last column/row;
// such "partial" diagonals keep their padded zeros for the out-of-range
// positions and the kernels clamp the element range. Partial diagonals are
// stored after a `full_diags` prefix per segment so the hot kernel loop
// runs unchecked over the (overwhelmingly common) fully-in-range ones.
#pragma once

#include <cstddef>

#include "src/formats/common.hpp"
#include "src/formats/csr.hpp"

namespace bspmv {

template <class V>
class BcsdDec;

template <class V>
class Bcsd {
 public:
  Bcsd() = default;

  /// Convert from CSR with diagonal block length b >= 1.
  static Bcsd from_csr(const Csr<V>& a, int b);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  int b() const { return b_; }
  index_t segments() const { return segments_; }
  std::size_t blocks() const { return bcol_ind_.size(); }
  std::size_t nnz() const { return nnz_; }
  std::size_t padding() const { return bval_.size() - nnz_; }

  const aligned_vector<index_t>& brow_ptr() const { return brow_ptr_; }
  const aligned_vector<index_t>& bcol_ind() const { return bcol_ind_; }
  const aligned_vector<V>& bval() const { return bval_; }
  /// Per segment: how many leading diagonals are fully in range (rows and
  /// columns), eligible for the unchecked fast path.
  const aligned_vector<index_t>& full_diags() const { return full_diags_; }

  std::size_t working_set_bytes() const;

  Coo<V> to_coo() const;

 private:
  friend class BcsdDec<V>;
  /// from_csr; with `remainder`, only completely full diagonals are stored
  /// and the other nonzeros go to *remainder, their row tags to *rem_tags
  /// (BCSD-DEC).
  static Bcsd build(const Csr<V>& a, int b, Csr<V>* remainder,
                    aligned_vector<std::uint8_t>* rem_tags);

  index_t rows_ = 0;
  index_t cols_ = 0;
  int b_ = 1;
  index_t segments_ = 0;
  std::size_t nnz_ = 0;
  aligned_vector<index_t> brow_ptr_;
  aligned_vector<index_t> bcol_ind_;
  aligned_vector<V> bval_;
  aligned_vector<index_t> full_diags_;
};

extern template class Bcsd<float>;
extern template class Bcsd<double>;

}  // namespace bspmv
