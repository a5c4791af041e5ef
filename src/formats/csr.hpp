// Compressed Sparse Row — the paper's baseline format (Barrett et al. [2]).
//
// Arrays exactly as described in §II: `val` (nnz values), `col_ind`
// (nnz 4-byte column indices), `row_ptr` (n+1 pointers into val).
//
// The three arrays live in one immutable block that copies share: copying
// a Csr, converting it to a CSR candidate or preparing a CSR engine from
// it costs O(1) and allocates nothing. The block is freed with its last
// owner. The only mutator, mutable_col_ind(), copies the block first when
// another Csr still shares it, so no copy ever sees another's write.
#pragma once

#include <cstddef>
#include <memory>

#include "src/formats/common.hpp"
#include "src/formats/coo.hpp"

namespace bspmv {

template <class V>
class Csr {
 public:
  Csr() = default;

  /// Build from a COO matrix (sorted + combined internally; the input is
  /// taken by value so callers keep their copy only if they want it).
  static Csr from_coo(Coo<V> coo);

  /// Build directly from raw arrays (validated).
  Csr(index_t rows, index_t cols, aligned_vector<index_t> row_ptr,
      aligned_vector<index_t> col_ind, aligned_vector<V> val);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::size_t nnz() const { return arrays().val.size(); }

  const aligned_vector<index_t>& row_ptr() const { return arrays().row_ptr; }
  const aligned_vector<index_t>& col_ind() const { return arrays().col_ind; }
  const aligned_vector<V>& val() const { return arrays().val; }

  /// Mutable access for in-place experiments (e.g. the zeroed-col_ind
  /// latency diagnosis benchmark of §V-B). Copies the block first when
  /// another Csr shares it; a sole owner writes in place. A reference
  /// count orders nothing, so a copy dropped on another thread must be
  /// dropped before this call (e.g. by joining that thread).
  aligned_vector<index_t>& mutable_col_ind();

  index_t row_nnz(index_t row) const {
    const auto& rp = row_ptr();
    return rp[static_cast<std::size_t>(row) + 1] -
           rp[static_cast<std::size_t>(row)];
  }

  /// Working set in bytes as accounted by the paper's models:
  /// matrix arrays + input + output vector.
  std::size_t working_set_bytes() const;

  /// Round-trip back to COO (used by format converters and tests).
  Coo<V> to_coo() const;

 private:
  struct Arrays {
    aligned_vector<index_t> row_ptr;
    aligned_vector<index_t> col_ind;
    aligned_vector<V> val;
  };

  // A default-constructed or moved-from Csr holds no block and reads as
  // empty arrays.
  const Arrays& arrays() const { return data_ ? *data_ : kNoArrays; }

  static inline const Arrays kNoArrays{};

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::shared_ptr<const Arrays> data_;
};

extern template class Csr<float>;
extern template class Csr<double>;

}  // namespace bspmv
