// Block-specific BCSR multiplication kernels — §V: "we have implemented a
// block-specific multiplication routine for each particular block", plus
// vectorised versions.
//
// One fully-unrolled kernel exists per (r×c shape, scalar/SIMD, value
// type); selection goes through a compile-time-built dispatch table, so
// the inner loops contain no branches on the shape.
#pragma once

#include "src/formats/bcsr.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

/// A BCSR kernel accumulates y[rows of br0..br1) += A·x over a block-row
/// range (partial tail block rows are handled internally). The
/// decomposed flavour also adds the CSR remainder `rem` (same rows as the
/// blocked part; `rem_tag` its entries' row tags, see decomposed.hpp)
/// into the same sums a chunk of bands at a time, so BCSR-DEC runs in
/// one pass; the padded flavour ignores `rem` and `rem_tag`.
template <class V>
using BcsrKernelFn = void (*)(const Bcsr<V>&, const Csr<V>* rem,
                              const rem_tag_t* rem_tag, index_t br0,
                              index_t br1, const V* x, V* y);

/// Look up the specialised kernel for a shape (r·c <= 8).
/// Throws invalid_argument_error for unsupported shapes.
template <class V>
BcsrKernelFn<V> bcsr_kernel(BlockShape shape, bool simd,
                            bool decomposed = false);

extern template BcsrKernelFn<float> bcsr_kernel<float>(BlockShape, bool,
                                                       bool);
extern template BcsrKernelFn<double> bcsr_kernel<double>(BlockShape, bool,
                                                         bool);

}  // namespace bspmv
