// Unified single-threaded SpMV/SpMM front-end over every storage format.
//
// `spmv(A, x, y, impl)` computes y = A·x (zeroing y first);
// `spmv_add(A, x, y, impl)` accumulates y += A·x, which is what the
// decomposed formats chain internally. `x` must have A.cols() elements
// and `y` A.rows() elements.
//
// `spmm(A, X, Y, k, impl)` / `spmm_add(...)` are the multi-vector
// counterparts: X is cols×k and Y rows×k, row-major (element (i, j) at
// X[i·k + j], the k values sharing a row index adjacent), so the matrix
// is streamed once for all k vectors (docs/spmm.md). k == 1 delegates to
// the single-vector path, so spmm(A, X, Y, 1, impl) is bitwise
// spmv(A, X, Y, impl). A caller holding k separate vectors calls spmv k
// times.
//
// All are generic templates dispatching through FormatOps
// (src/formats/format_ops.hpp), so any format with a FormatOps
// specialisation — including ones registered outside the library — gets
// the full API for free: formats without a native spmm_add member fall
// back to k single-vector runs (detected with `requires`).
#pragma once

#include <algorithm>
#include <cstddef>

#include "src/formats/format_ops.hpp"

namespace bspmv {

/// y += A·x for any format with a FormatOps specialisation.
template <class Format, class V = typename FormatOps<Format>::value_type>
void spmv_add(const Format& a, const V* x, V* y, Impl impl = Impl::kScalar) {
  FormatOps<Format>::spmv_add(a, x, y, impl);
}

/// y = A·x for any format with a FormatOps specialisation.
template <class Format, class V = typename FormatOps<Format>::value_type>
void spmv(const Format& a, const V* x, V* y, Impl impl = Impl::kScalar) {
  std::fill(y, y + a.rows(), V{0});
  FormatOps<Format>::spmv_add(a, x, y, impl);
}

/// Y += A·X for k row-major right-hand sides.
template <class Format, class V = typename FormatOps<Format>::value_type>
void spmm_add(const Format& a, const V* X, V* Y, int k,
              Impl impl = Impl::kScalar) {
  if (k == 1) {
    FormatOps<Format>::spmv_add(a, X, Y, impl);
    return;
  }
  if constexpr (requires { FormatOps<Format>::spmm_add(a, X, Y, k, impl); }) {
    FormatOps<Format>::spmm_add(a, X, Y, k, impl);
  } else {
    detail::spmm_add_via_spmv(a, X, Y, k, impl);
  }
}

/// Y = A·X for k row-major right-hand sides. k > 1 takes the overwrite
/// fast path when the format provides spmm_store (each Y element is
/// written exactly once — no zero-fill pass, no read-modify-write);
/// everything else zeroes Y and accumulates. Same values and per-vector
/// accumulation order either way.
template <class Format, class V = typename FormatOps<Format>::value_type>
void spmm(const Format& a, const V* X, V* Y, int k,
          Impl impl = Impl::kScalar) {
  if (k > 1) {
    if constexpr (requires {
                    FormatOps<Format>::spmm_store(a, X, Y, k, impl);
                  }) {
      FormatOps<Format>::spmm_store(a, X, Y, k, impl);
      return;
    }
  }
  std::fill(Y, Y + static_cast<std::size_t>(a.rows()) *
                       static_cast<std::size_t>(k),
            V{0});
  spmm_add(a, X, Y, k, impl);
}

}  // namespace bspmv
