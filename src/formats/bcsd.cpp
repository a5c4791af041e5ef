#include "src/formats/bcsd.hpp"

#include <algorithm>
#include <cstdint>

#include "src/formats/band_scan.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

template <class V>
Bcsd<V> Bcsd<V>::from_csr(const Csr<V>& a, int b) {
  return build(a, b, nullptr, nullptr);
}

template <class V>
Bcsd<V> Bcsd<V>::build(const Csr<V>& a, int b, Csr<V>* remainder,
                       aligned_vector<std::uint8_t>* rem_tags) {
  BSPMV_CHECK_MSG(b >= 1, "diagonal block length must be >= 1");
  Bcsd out;
  out.rows_ = a.rows();
  out.cols_ = a.cols();
  out.b_ = b;
  out.segments_ = (a.rows() + b - 1) / b;
  out.full_diags_.assign(static_cast<std::size_t>(out.segments_), 0);
  const auto n = static_cast<std::size_t>(a.rows());
  const auto bs = static_cast<std::size_t>(b);
  // Sorted by start column, the diagonals fully inside the matrix
  // (0 <= j0 <= cols - b, in a segment of b rows) form one run; moving it
  // to the front keeps both runs sorted.
  auto full_first = [&](std::size_t s, std::uint32_t* keys, std::size_t nd) {
    if ((s + 1) * bs > n) return;
    std::uint32_t* lo =
        std::lower_bound(keys, keys + nd, static_cast<std::uint32_t>(b - 1));
    std::uint32_t* hi = std::upper_bound(
        lo, keys + nd, static_cast<std::uint32_t>(a.cols()) - 1);
    std::rotate(keys, lo, hi);
    out.full_diags_[s] = static_cast<index_t>(hi - lo);
  };
  out.nnz_ = detail::convert_bands(
      a, detail::BcsdBlocking(b), "bcsd",
      out.full_diags_.size() * sizeof(index_t),
      out.brow_ptr_, out.bcol_ind_, out.bval_, remainder, rem_tags,
      full_first);
  return out;
}

template <class V>
std::size_t Bcsd<V>::working_set_bytes() const {
  return bval_.size() * sizeof(V) + bcol_ind_.size() * sizeof(index_t) +
         brow_ptr_.size() * sizeof(index_t) +
         full_diags_.size() * sizeof(index_t) +
         static_cast<std::size_t>(cols_) * sizeof(V) +
         static_cast<std::size_t>(rows_) * sizeof(V);
}

template <class V>
Coo<V> Bcsd<V>::to_coo() const {
  Coo<V> coo(rows_, cols_);
  for (index_t s = 0; s < segments_; ++s) {
    const index_t base = s * b_;
    for (index_t d = brow_ptr_[static_cast<std::size_t>(s)];
         d < brow_ptr_[static_cast<std::size_t>(s) + 1]; ++d) {
      const index_t j0 = bcol_ind_[static_cast<std::size_t>(d)];
      const V* bv = bval_.data() +
                    static_cast<std::size_t>(d) * static_cast<std::size_t>(b_);
      for (int k = 0; k < b_; ++k) {
        const index_t i = base + k;
        const index_t j = j0 + k;
        if (i < rows_ && j >= 0 && j < cols_ && bv[k] != V{0})
          coo.add(i, j, bv[k]);
      }
    }
  }
  return coo;
}

template class Bcsd<float>;
template class Bcsd<double>;

}  // namespace bspmv
