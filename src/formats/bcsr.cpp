#include "src/formats/bcsr.hpp"

#include <cstdint>

#include "src/formats/band_scan.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

template <class V>
Bcsr<V> Bcsr<V>::from_csr(const Csr<V>& a, BlockShape shape) {
  return build(a, shape, nullptr, nullptr);
}

template <class V>
Bcsr<V> Bcsr<V>::build(const Csr<V>& a, BlockShape shape, Csr<V>* remainder,
                       aligned_vector<std::uint8_t>* rem_tags) {
  BSPMV_CHECK_MSG(shape.r >= 1 && shape.c >= 1, "block shape must be >= 1x1");
  Bcsr out;
  out.rows_ = a.rows();
  out.cols_ = a.cols();
  out.shape_ = shape;
  out.block_rows_ = (a.rows() + shape.r - 1) / shape.r;
  out.nnz_ = detail::convert_bands(
      a, detail::BcsrBlocking(shape), "bcsr", 0,
      out.brow_ptr_, out.bcol_ind_, out.bval_, remainder, rem_tags,
      [](std::size_t, std::uint32_t*, std::size_t) {});
  return out;
}

template <class V>
std::size_t Bcsr<V>::working_set_bytes() const {
  return bval_.size() * sizeof(V) + bcol_ind_.size() * sizeof(index_t) +
         brow_ptr_.size() * sizeof(index_t) +
         static_cast<std::size_t>(cols_) * sizeof(V) +
         static_cast<std::size_t>(rows_) * sizeof(V);
}

template <class V>
Coo<V> Bcsr<V>::to_coo() const {
  Coo<V> coo(rows_, cols_);
  const index_t r = shape_.r;
  const index_t c = shape_.c;
  for (index_t br = 0; br < block_rows_; ++br) {
    for (index_t blk = brow_ptr_[static_cast<std::size_t>(br)];
         blk < brow_ptr_[static_cast<std::size_t>(br) + 1]; ++blk) {
      const index_t bc = bcol_ind_[static_cast<std::size_t>(blk)];
      const V* bv = bval_.data() + static_cast<std::size_t>(blk) *
                                       static_cast<std::size_t>(r) *
                                       static_cast<std::size_t>(c);
      for (index_t rr = 0; rr < r; ++rr) {
        for (index_t cc = 0; cc < c; ++cc) {
          const V v = bv[rr * c + cc];
          const index_t i = br * r + rr;
          const index_t j = bc * c + cc;
          if (v != V{0} && i < rows_ && j < cols_) coo.add(i, j, v);
        }
      }
    }
  }
  return coo;
}

template class Bcsr<float>;
template class Bcsr<double>;

}  // namespace bspmv
