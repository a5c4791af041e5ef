#include "src/kernels/csr_kernels.hpp"

#include "src/kernels/block_madd.hpp"

namespace bspmv {
namespace {

template <class V, bool Simd>
void csr_spmv_range(const Csr<V>& a, index_t row0, index_t row1, const V* x,
                    V* y) {
  BSPMV_DBG_ASSERT(row0 >= 0 && row1 <= a.rows() && row0 <= row1);
  const index_t* BSPMV_RESTRICT row_ptr = a.row_ptr().data();
  const index_t* BSPMV_RESTRICT col_ind = a.col_ind().data();
  const V* BSPMV_RESTRICT val = a.val().data();
  for (index_t i = row0; i < row1; ++i)
    y[i] += detail::csr_row_dot<V, Simd>(val, col_ind, row_ptr[i],
                                         row_ptr[i + 1], x, V{0});
}

}  // namespace

template <class V>
void csr_spmv_scalar(const Csr<V>& a, index_t row0, index_t row1, const V* x,
                     V* y) {
  csr_spmv_range<V, false>(a, row0, row1, x, y);
}

template <class V>
void csr_spmv_simd(const Csr<V>& a, index_t row0, index_t row1, const V* x,
                   V* y) {
  csr_spmv_range<V, true>(a, row0, row1, x, y);
}

template void csr_spmv_scalar(const Csr<float>&, index_t, index_t,
                              const float*, float*);
template void csr_spmv_scalar(const Csr<double>&, index_t, index_t,
                              const double*, double*);
template void csr_spmv_simd(const Csr<float>&, index_t, index_t, const float*,
                            float*);
template void csr_spmv_simd(const Csr<double>&, index_t, index_t,
                            const double*, double*);

}  // namespace bspmv
