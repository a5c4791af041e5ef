// CSR SpMV kernels (scalar and SIMD), the baseline the paper measures
// every blocked format against.
//
// All kernels ACCUMULATE into y (y += A·x) over a row range so that (a)
// decomposed formats can chain submatrix products and (b) the parallel
// driver can hand disjoint row ranges to threads. Callers zero y first
// for a plain product (the top-level spmv() API does this).
//
// Both walk the rows in chunks of 256, aligned to absolute rows, the way
// the decomposed kernels walk their CSR remainder: each chunk goes flat
// (one loop over its entries, x prefetched) or row by row, chosen from
// the whole chunk (docs/formats.md, "How CSR rows are walked"). A range
// that cuts a chunk walks its rows as the whole chunk does, so results
// do not depend on how tasks split the rows.
#pragma once

#include "src/formats/csr.hpp"

namespace bspmv {

/// y[row0..row1) += A[row0..row1) · x. Each row adds its products in
/// stored order from 0 on either walk, so the walk never changes a bit.
template <class V>
void csr_spmv_scalar(const Csr<V>& a, index_t row0, index_t row1, const V* x,
                     V* y);

/// SIMD variant: the per-row walk accumulates each row in 16-byte vectors
/// with a scalar tail; the flat walk adds in the scalar kernel's order.
/// The gather of x stays scalar (SSE2 has no gather).
template <class V>
void csr_spmv_simd(const Csr<V>& a, index_t row0, index_t row1, const V* x,
                   V* y);

extern template void csr_spmv_scalar(const Csr<float>&, index_t, index_t,
                                     const float*, float*);
extern template void csr_spmv_scalar(const Csr<double>&, index_t, index_t,
                                     const double*, double*);
extern template void csr_spmv_simd(const Csr<float>&, index_t, index_t,
                                   const float*, float*);
extern template void csr_spmv_simd(const Csr<double>&, index_t, index_t,
                                   const double*, double*);

}  // namespace bspmv
