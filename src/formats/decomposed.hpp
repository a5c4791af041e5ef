// Decomposed blocking storage — §II-B "Decomposed matrices".
//
// The input matrix is split into k = 2 submatrices: the first holds only
// *completely full* fixed-size blocks (so no padding is ever stored) and
// the second holds the remainder elements in standard CSR. BCSR-DEC uses
// aligned r×c rectangular blocks, BCSD-DEC aligned length-b diagonal
// blocks — the same alignment rules as their padded counterparts.
#pragma once

#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/csr.hpp"

namespace bspmv {

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
  std::size_t nnz() const { return blocked_.nnz() + remainder_.nnz(); }

  /// Working set of both submatrices; x and y are counted once (one pass
  /// streams both parts' arrays band by band and shares the vectors).
  std::size_t working_set_bytes() const;

  Coo<V> to_coo() const;

 private:
  Bcsr<V> blocked_;
  Csr<V> remainder_;
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
  std::size_t nnz() const { return blocked_.nnz() + remainder_.nnz(); }

  std::size_t working_set_bytes() const;

  Coo<V> to_coo() const;

 private:
  Bcsd<V> blocked_;
  Csr<V> remainder_;
};

extern template class BcsrDec<float>;
extern template class BcsrDec<double>;
extern template class BcsdDec<float>;
extern template class BcsdDec<double>;

}  // namespace bspmv
