// Decomposed blocking storage — §II-B "Decomposed matrices".
//
// The input matrix is split into k = 2 submatrices: the first holds only
// *completely full* fixed-size blocks (so no padding is ever stored) and
// the second holds the remainder elements in standard CSR. BCSR-DEC uses
// aligned r×c rectangular blocks, BCSD-DEC aligned length-b diagonal
// blocks — the same alignment rules as their padded counterparts.
//
// The fused kernels walk the remainder a chunk of kRemChunkBands bands at
// a time (src/kernels/block_madd.hpp): one loop over the chunk's entries,
// each added to its row's slot in a chunk-local accumulator. So every
// remainder entry carries a one-byte row tag, its row's offset in its
// chunk: row % (band height · kRemChunkBands). Conversion fills the tags;
// validate() checks them, as the kernels index a stack buffer with them.
#pragma once

#include <cstdint>

#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/block_shapes.hpp"
#include "src/formats/csr.hpp"

namespace bspmv {

/// Bands per remainder chunk; chunks start at multiples of it in absolute
/// band index, so the walk does not depend on how tasks split the rows.
inline constexpr int kRemChunkBands = 32;
using rem_tag_t = std::uint8_t;
static_assert(kMaxBlockElems * kRemChunkBands <= 256,
              "a chunk's row offset must fit rem_tag_t");

/// The tag of a remainder entry in `row`, for bands of `band` rows.
inline rem_tag_t rem_tag(index_t row, int band) {
  return static_cast<rem_tag_t>(row % (band * kRemChunkBands));
}

/// BCSR-DEC: full aligned r×c blocks + CSR remainder.
template <class V>
class BcsrDec {
 public:
  BcsrDec() = default;

  static BcsrDec from_csr(const Csr<V>& a, BlockShape shape);

  index_t rows() const { return blocked_.rows(); }
  index_t cols() const { return blocked_.cols(); }
  BlockShape shape() const { return blocked_.shape(); }
  const Bcsr<V>& blocked() const { return blocked_; }
  const Csr<V>& remainder() const { return remainder_; }
  /// One row tag per remainder entry, in the remainder's order.
  const aligned_vector<rem_tag_t>& remainder_tag() const { return rem_tag_; }
  /// Mutable tags, for fault-injection tests (validate() rejects a bad one).
  aligned_vector<rem_tag_t>& mutable_remainder_tag() { return rem_tag_; }
  std::size_t nnz() const { return blocked_.nnz() + remainder_.nnz(); }

  /// Working set of both submatrices and the row tags; x and y are
  /// counted once (one pass streams both parts' arrays band by band and
  /// shares the vectors).
  std::size_t working_set_bytes() const;

  Coo<V> to_coo() const;

 private:
  Bcsr<V> blocked_;
  Csr<V> remainder_;
  aligned_vector<rem_tag_t> rem_tag_;
};

/// BCSD-DEC: full aligned diagonal blocks + CSR remainder.
template <class V>
class BcsdDec {
 public:
  BcsdDec() = default;

  static BcsdDec from_csr(const Csr<V>& a, int b);

  index_t rows() const { return blocked_.rows(); }
  index_t cols() const { return blocked_.cols(); }
  int b() const { return blocked_.b(); }
  const Bcsd<V>& blocked() const { return blocked_; }
  const Csr<V>& remainder() const { return remainder_; }
  const aligned_vector<rem_tag_t>& remainder_tag() const { return rem_tag_; }
  aligned_vector<rem_tag_t>& mutable_remainder_tag() { return rem_tag_; }
  std::size_t nnz() const { return blocked_.nnz() + remainder_.nnz(); }

  std::size_t working_set_bytes() const;

  Coo<V> to_coo() const;

 private:
  Bcsd<V> blocked_;
  Csr<V> remainder_;
  aligned_vector<rem_tag_t> rem_tag_;
};

extern template class BcsrDec<float>;
extern template class BcsrDec<double>;
extern template class BcsdDec<float>;
extern template class BcsdDec<double>;

}  // namespace bspmv
