// Block-specific BCSD (diagonal-block) multiplication kernels, scalar and
// SIMD, one per diagonal length b <= 8.
//
// Fully in-range diagonals (a per-segment prefix, see Bcsd::full_diags())
// run unchecked; boundary diagonals take a clamped scalar path. Kernels
// accumulate into y over a segment range for the parallel driver. The
// decomposed flavour also adds each segment's rows of the CSR remainder
// `rem` (with its entries' row tags `rem_tag`) into the segment's sums,
// a chunk of segments at a time, so BCSD-DEC runs in one pass; the
// padded flavour ignores `rem` and `rem_tag`.
#pragma once

#include "src/formats/bcsd.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

template <class V>
using BcsdKernelFn = void (*)(const Bcsd<V>&, const Csr<V>* rem,
                              const rem_tag_t* rem_tag, index_t seg0,
                              index_t seg1, const V* x, V* y);

/// Look up the specialised kernel for diagonal length b (1 <= b <= 8).
template <class V>
BcsdKernelFn<V> bcsd_kernel(int b, bool simd, bool decomposed = false);

extern template BcsdKernelFn<float> bcsd_kernel<float>(int, bool, bool);
extern template BcsdKernelFn<double> bcsd_kernel<double>(int, bool, bool);

}  // namespace bspmv
