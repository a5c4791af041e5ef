// HaloDec — the column split of one distributed shard.
//
// A rank's shard is stored as two CSR submatrices over the same rows:
//
//   local : the columns the rank owns (rebased to [0, local_cols())),
//   halo  : every other column, renumbered into the compact halo index
//           space (position in the shard plan's sorted halo_cols).
//
// The rank runtime (src/dist/rank.cpp) drives the two parts with two
// executors over one x buffer laid out [owned slice | halo values] —
// exactly the buffer the halo exchange fills. A ThreadedSpmv over
// local() zero-fills y and accumulates the owned columns, in overlap
// mode while halo bytes are still in flight; a serial spmv_add over
// halo() then accumulates the halo columns once the exchange is done.
// The rank orders the exchange itself, so HaloDec is plain data: it has
// no FormatOps specialisation and never joins AnyFormat's registry.
#pragma once

#include <vector>

#include "src/formats/csr.hpp"

namespace bspmv::dist {

template <class V>
class HaloDec {
 public:
  HaloDec() = default;

  /// Column-split rows [row_begin, row_end) of `a` against the owned
  /// x range [x_begin, x_end). halo_cols ends up sorted ascending (the
  /// compact halo index space the shard plan's segments address).
  static HaloDec split(const Csr<V>& a, index_t row_begin, index_t row_end,
                       index_t x_begin, index_t x_end);

  index_t rows() const { return local_.rows(); }
  index_t local_cols() const { return local_.cols(); }
  index_t halo_count() const { return halo_.cols(); }

  const Csr<V>& local() const { return local_; }
  const Csr<V>& halo() const { return halo_; }
  /// Global column ids of the halo entries (sorted).
  const std::vector<index_t>& halo_cols() const { return halo_cols_; }

 private:
  /// Assemble split's parts. Validated: both parts must agree on rows
  /// and halo_cols must be sorted and match halo.cols().
  HaloDec(Csr<V> local, Csr<V> halo, std::vector<index_t> halo_cols);

  Csr<V> local_;
  Csr<V> halo_;
  std::vector<index_t> halo_cols_;
};

extern template class HaloDec<double>;

}  // namespace bspmv::dist
