// Multi-vector (SpMM) kernels for the natively-supported formats: CSR,
// BCSR, BCSD and 1D-VBL, operating on row-major (interleaved) X/Y blocks
// of k right-hand sides — y(i,j) += Σ A(i,l)·x(l,j).
//
// The point of these kernels is bandwidth amortisation: the matrix
// arrays are streamed ONCE for all k vectors, and the inner j-loop runs
// over k contiguous values of X, so the SIMD flavour vectorises across
// the vectors with plain loads — the x-gather that limits single-vector
// SpMV disappears (docs/spmm.md works out the arithmetic-to-bandwidth
// ratio).
//
// Determinism contract (relied on by the registry parity tests): for
// every vector j, the floating-point accumulation order is EXACTLY that
// of the format's scalar single-vector kernel — the SIMD flavour only
// maps independent vectors onto lanes, never splitting one vector's
// reduction. Hence, for any k and either flavour, output vector j is
// bitwise identical to a scalar spmv_add on column j of X.
//
// By default all kernels ACCUMULATE into Y over a granule range,
// mirroring the single-vector kernels, so the parallel driver hands out
// disjoint ranges. With accumulate=false they OVERWRITE Y instead
// (y = sum rather than y += sum): the full-multiply front-end uses this
// to skip the zero-fill pass and the read half of the
// read-modify-write — at k = 8 that is two of the three Y-block
// traversals, a measurable bandwidth saving. The computed
// sum is identical either way (0 + sum ≡ sum up to the sign of a zero
// result), so the determinism contract is unaffected.
#pragma once

#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/formats/vbl.hpp"

namespace bspmv {

/// Y[rows row0..row1) += A[row0..row1) · X, row-major k-interleaved
/// (accumulate=false overwrites the rows instead).
template <class V>
void csr_spmm_rm(const Csr<V>& a, index_t row0, index_t row1, const V* X,
                 V* Y, int k, bool simd, bool accumulate = true);

/// Block-row range variant for BCSR (any supported shape, runtime r×c).
/// A non-null `rem` is BCSR-DEC's CSR remainder and `rem_tag` its
/// entries' row tags (decomposed.hpp): each band's remainder entries join
/// that band's accumulators before the single flush, so the decomposed
/// format streams once, in the scalar kernel's per-vector order.
template <class V>
void bcsr_spmm_rm(const Bcsr<V>& a, index_t br0, index_t br1, const V* X,
                  V* Y, int k, bool simd, bool accumulate = true,
                  const Csr<V>* rem = nullptr,
                  const rem_tag_t* rem_tag = nullptr);

/// Segment range variant for BCSD (any diagonal length b), with the same
/// optional BCSD-DEC remainder. In overwrite mode, segments with no
/// fully-in-range diagonal and no remainder zero their Y rows before the
/// clamped boundary accumulation.
template <class V>
void bcsd_spmm_rm(const Bcsd<V>& a, index_t seg0, index_t seg1, const V* X,
                  V* Y, int k, bool simd, bool accumulate = true,
                  const Csr<V>* rem = nullptr,
                  const rem_tag_t* rem_tag = nullptr);

/// Whole-matrix 1D-VBL (the format has no parallel protocol).
template <class V>
void vbl_spmm_rm(const Vbl<V>& a, const V* X, V* Y, int k, bool simd,
                 bool accumulate = true);

#define BSPMV_DECL(V)                                                       \
  extern template void csr_spmm_rm(const Csr<V>&, index_t, index_t,         \
                                   const V*, V*, int, bool, bool);          \
  extern template void bcsr_spmm_rm(const Bcsr<V>&, index_t, index_t,       \
                                    const V*, V*, int, bool, bool,          \
                                    const Csr<V>*, const rem_tag_t*);       \
  extern template void bcsd_spmm_rm(const Bcsd<V>&, index_t, index_t,       \
                                    const V*, V*, int, bool, bool,          \
                                    const Csr<V>*, const rem_tag_t*);       \
  extern template void vbl_spmm_rm(const Vbl<V>&, const V*, V*, int, bool,  \
                                   bool);
BSPMV_DECL(float)
BSPMV_DECL(double)
#undef BSPMV_DECL

}  // namespace bspmv
