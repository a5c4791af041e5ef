// FormatOps<Format>: the compile-time trait every storage format
// specialises exactly once. It is the single place where a format's
// identity (kind, name), conversion from CSR, structural validation,
// working-set size, serial kernel dispatch and parallel-execution
// protocol live; everything above this layer — the generic spmv()
// front-end (src/kernels/spmv.hpp), the generic ThreadedSpmv driver
// (src/parallel/parallel_spmv.hpp), AnyFormat's registry dispatch
// (src/core/executor.*) — is format-agnostic and never needs to change
// when a format is added. See docs/architecture.md for the
// how-to-add-a-format checklist.
//
// Required members of a specialisation FormatOps<F> (value type V):
//   using value_type = V;
//   static constexpr FormatKind kKind;     // registry dispatch key
//   static constexpr const char* kName;    // == format_name(kKind)
//   static constexpr bool kParallel;       // has a threaded driver (§V-A)
//   static F convert(const Csr<V>&, const Candidate&);
//   static void validate(const F&);        // throws validation_error
//   static std::size_t working_set_bytes(const F&);
//   static void spmv_add(const F&, const V* x, V* y, Impl);  // y += A·x
// and, when kParallel (the §V-A protocol — the driver walks the format's
// row granules once: it splits them into contiguous ranges of near-equal
// stored-value weight, and each range owns the contiguous row range it
// zero-fills before accumulating. The decomposed formats run their blocks
// and CSR remainder band by band within the same granule):
//   static std::vector<std::size_t> pass_weights(const F&);
//   static index_t pass_first_row(const F&, index_t g);
//   static void pass_run(const F&, index_t g0, index_t g1,
//                        const V* x, V* y, Impl);             // accumulates
//
// Optional multi-vector (SpMM) members, X/Y row-major (element (i, j)
// at X[i·k + j]) — every builtin format provides them; out-of-tree
// formats that omit them still get the full spmm/run_multi API through
// k single-vector runs (the generic front-ends detect the members with
// `requires`):
//   static void spmm_add(const F&, const V* X, V* Y, int k, Impl);
//   static void pass_run_multi(const F&, index_t g0, index_t g1,
//                              const V* X, V* Y, int k, Impl);
//   static void spmm_store(const F&, const V* X, V* Y, int k, Impl);
// They stream the matrix once across all k vectors (the native kernels
// in src/kernels/spmm_kernels.hpp). Per vector the accumulation order
// equals the scalar single-vector kernel — see docs/spmm.md.
//
// spmm_store is the full-multiply fast path: Y = A·X with
// every Y element written exactly once, skipping the zero-fill pass and
// the read half of the accumulate — spmm() uses it when present.
// Identical values to zero-fill + spmm_add (up to the sign of an exact
// zero result), same per-vector accumulation order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/core/candidates.hpp"
#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/formats/ubcsr.hpp"
#include "src/formats/vbl.hpp"
#include "src/formats/validate.hpp"
#include "src/kernels/bcsd_kernels.hpp"
#include "src/kernels/bcsr_kernels.hpp"
#include "src/kernels/csr_kernels.hpp"
#include "src/kernels/spmm_kernels.hpp"
#include "src/kernels/ubcsr_kernels.hpp"
#include "src/kernels/vbl_kernels.hpp"
#include "src/util/aligned.hpp"

namespace bspmv {

/// Primary template is intentionally undefined: using a format without a
/// FormatOps specialisation is a compile error at the point of use.
template <class F>
struct FormatOps;

namespace detail {

/// SpMM through k single-vector kernel runs — the fallback for formats
/// without a native multi-vector kernel (UBCSR and any out-of-tree
/// format). Each vector pays a deinterleave/reinterleave copy; the
/// formats with native kernels never take that path.
template <class F, class V = typename FormatOps<F>::value_type>
void spmm_add_via_spmv(const F& a, const V* X, V* Y, int k, Impl impl) {
  const std::size_t rows = static_cast<std::size_t>(a.rows());
  const std::size_t cols = static_cast<std::size_t>(a.cols());
  aligned_vector<V> x(cols), y(rows);
  for (int j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < cols; ++i)
      x[i] = X[i * static_cast<std::size_t>(k) + static_cast<std::size_t>(j)];
    std::fill(y.begin(), y.end(), V{0});
    FormatOps<F>::spmv_add(a, x.data(), y.data(), impl);
    for (std::size_t i = 0; i < rows; ++i)
      Y[i * static_cast<std::size_t>(k) + static_cast<std::size_t>(j)] +=
          y[i];
  }
}

}  // namespace detail

// ------------------------------------------------------------------ CSR ----

template <class V>
struct FormatOps<Csr<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kCsr;
  static constexpr const char* kName = "csr";
  static constexpr bool kParallel = true;

  /// O(1): the result shares `a`'s immutable arrays (see Csr).
  static Csr<V> convert(const Csr<V>& a, const Candidate&) { return a; }
  static void validate(const Csr<V>& m) { bspmv::validate(m); }
  static std::size_t working_set_bytes(const Csr<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const Csr<V>& a, const V* x, V* y, Impl impl) {
    pass_run(a, 0, a.rows(), x, y, impl);
  }
  static void spmm_add(const Csr<V>& a, const V* X, V* Y, int k,
                       Impl impl) {
    pass_run_multi(a, 0, a.rows(), X, Y, k, impl);
  }
  static void spmm_store(const Csr<V>& a, const V* X, V* Y, int k,
                         Impl impl) {
    csr_spmm_rm(a, 0, a.rows(), X, Y, k, impl == Impl::kSimd, false);
  }

  static std::vector<std::size_t> pass_weights(const Csr<V>& a) {
    std::vector<std::size_t> w(static_cast<std::size_t>(a.rows()));
    for (index_t i = 0; i < a.rows(); ++i)
      w[static_cast<std::size_t>(i)] = static_cast<std::size_t>(a.row_nnz(i));
    return w;
  }
  static index_t pass_first_row(const Csr<V>&, index_t g) { return g; }
  static void pass_run(const Csr<V>& a, index_t g0, index_t g1,
                       const V* x, V* y, Impl impl) {
    if (impl == Impl::kSimd)
      csr_spmv_simd(a, g0, g1, x, y);
    else
      csr_spmv_scalar(a, g0, g1, x, y);
  }
  static void pass_run_multi(const Csr<V>& a, index_t g0,
                             index_t g1, const V* X, V* Y, int k,
                             Impl impl) {
    csr_spmm_rm(a, g0, g1, X, Y, k, impl == Impl::kSimd);
  }
};

// ----------------------------------------------------------------- BCSR ----

template <class V>
struct FormatOps<Bcsr<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kBcsr;
  static constexpr const char* kName = "bcsr";
  static constexpr bool kParallel = true;

  static Bcsr<V> convert(const Csr<V>& a, const Candidate& c) {
    return Bcsr<V>::from_csr(a, c.shape);
  }
  static void validate(const Bcsr<V>& m) { bspmv::validate(m); }
  static std::size_t working_set_bytes(const Bcsr<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const Bcsr<V>& a, const V* x, V* y, Impl impl) {
    pass_run(a, 0, a.block_rows(), x, y, impl);
  }
  static void spmm_add(const Bcsr<V>& a, const V* X, V* Y, int k,
                       Impl impl) {
    pass_run_multi(a, 0, a.block_rows(), X, Y, k, impl);
  }
  /// Empty block rows still flush their (zero) accumulators, so every
  /// row of Y is written even where the matrix stores nothing.
  static void spmm_store(const Bcsr<V>& a, const V* X, V* Y, int k,
                         Impl impl) {
    bcsr_spmm_rm(a, 0, a.block_rows(), X, Y, k, impl == Impl::kSimd, false);
  }

  /// Per-block-row stored values including padding (blocks · r · c).
  static std::vector<std::size_t> pass_weights(const Bcsr<V>& a) {
    const auto& brow_ptr = a.brow_ptr();
    const std::size_t elems = static_cast<std::size_t>(a.shape().elems());
    std::vector<std::size_t> w(static_cast<std::size_t>(a.block_rows()));
    for (std::size_t br = 0; br < w.size(); ++br)
      w[br] = static_cast<std::size_t>(brow_ptr[br + 1] - brow_ptr[br]) * elems;
    return w;
  }
  static index_t pass_first_row(const Bcsr<V>& a, index_t g) {
    return std::min(a.rows(), g * a.shape().r);
  }
  static void pass_run(const Bcsr<V>& a, index_t g0, index_t g1,
                       const V* x, V* y, Impl impl) {
    bcsr_kernel<V>(a.shape(), impl == Impl::kSimd)(a, nullptr, nullptr, g0,
                                                   g1, x, y);
  }
  static void pass_run_multi(const Bcsr<V>& a, index_t g0,
                             index_t g1, const V* X, V* Y, int k,
                             Impl impl) {
    bcsr_spmm_rm(a, g0, g1, X, Y, k, impl == Impl::kSimd);
  }
};

// ----------------------------------------------------------------- BCSD ----

template <class V>
struct FormatOps<Bcsd<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kBcsd;
  static constexpr const char* kName = "bcsd";
  static constexpr bool kParallel = true;

  static Bcsd<V> convert(const Csr<V>& a, const Candidate& c) {
    return Bcsd<V>::from_csr(a, c.b);
  }
  static void validate(const Bcsd<V>& m) { bspmv::validate(m); }
  static std::size_t working_set_bytes(const Bcsd<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const Bcsd<V>& a, const V* x, V* y, Impl impl) {
    pass_run(a, 0, a.segments(), x, y, impl);
  }
  static void spmm_add(const Bcsd<V>& a, const V* X, V* Y, int k,
                       Impl impl) {
    pass_run_multi(a, 0, a.segments(), X, Y, k, impl);
  }
  static void spmm_store(const Bcsd<V>& a, const V* X, V* Y, int k,
                         Impl impl) {
    bcsd_spmm_rm(a, 0, a.segments(), X, Y, k, impl == Impl::kSimd, false);
  }

  /// Per-segment stored values including padding (diagonals · b).
  static std::vector<std::size_t> pass_weights(const Bcsd<V>& a) {
    const auto& brow_ptr = a.brow_ptr();
    const std::size_t b = static_cast<std::size_t>(a.b());
    std::vector<std::size_t> w(static_cast<std::size_t>(a.segments()));
    for (std::size_t s = 0; s < w.size(); ++s)
      w[s] = static_cast<std::size_t>(brow_ptr[s + 1] - brow_ptr[s]) * b;
    return w;
  }
  static index_t pass_first_row(const Bcsd<V>& a, index_t g) {
    return std::min(a.rows(), g * a.b());
  }
  static void pass_run(const Bcsd<V>& a, index_t g0, index_t g1,
                       const V* x, V* y, Impl impl) {
    bcsd_kernel<V>(a.b(), impl == Impl::kSimd)(a, nullptr, nullptr, g0, g1,
                                               x, y);
  }
  static void pass_run_multi(const Bcsd<V>& a, index_t g0,
                             index_t g1, const V* X, V* Y, int k,
                             Impl impl) {
    bcsd_spmm_rm(a, g0, g1, X, Y, k, impl == Impl::kSimd);
  }
};

// --------------------------------------------------------------- 1D-VBL ----

template <class V>
struct FormatOps<Vbl<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kVbl;
  static constexpr const char* kName = "vbl";
  // The paper found 1D-VBL uncompetitive and did not parallelise it (§V-A).
  static constexpr bool kParallel = false;

  static Vbl<V> convert(const Csr<V>& a, const Candidate&) {
    return Vbl<V>::from_csr(a);
  }
  static void validate(const Vbl<V>& m) { bspmv::validate(m); }
  static std::size_t working_set_bytes(const Vbl<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const Vbl<V>& a, const V* x, V* y, Impl impl) {
    if (impl == Impl::kSimd)
      vbl_spmv_simd(a, x, y);
    else
      vbl_spmv_scalar(a, x, y);
  }
  static void spmm_add(const Vbl<V>& a, const V* X, V* Y, int k,
                       Impl impl) {
    vbl_spmm_rm(a, X, Y, k, impl == Impl::kSimd);
  }
  static void spmm_store(const Vbl<V>& a, const V* X, V* Y, int k,
                         Impl impl) {
    vbl_spmm_rm(a, X, Y, k, impl == Impl::kSimd, false);
  }
};

// ------------------------------------------------------------- BCSR-DEC ----

namespace detail {

/// Add the CSR remainder's nonzeros of each `band`-row band to the
/// blocked part's per-band weights: a decomposed band runs its blocks and
/// its remainder rows in one granule.
template <class V>
std::vector<std::size_t> add_band_remainder(std::vector<std::size_t> w,
                                            const Csr<V>& rem, int band) {
  const auto& rp = rem.row_ptr();
  const index_t n = rem.rows();
  for (std::size_t g = 0; g < w.size(); ++g) {
    const index_t i0 = std::min(n, static_cast<index_t>(g) * band);
    const index_t i1 = std::min(n, i0 + band);
    w[g] += static_cast<std::size_t>(rp[static_cast<std::size_t>(i1)] -
                                     rp[static_cast<std::size_t>(i0)]);
  }
  return w;
}

}  // namespace detail

/// One pass: each block row adds its blocks and then its rows of the CSR
/// remainder into the same sums and writes y once, a chunk of block rows
/// at a time (the fused kernels in src/kernels/bcsr_kernels_impl.hpp and
/// spmm_kernels.cpp).
template <class V>
struct FormatOps<BcsrDec<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kBcsrDec;
  static constexpr const char* kName = "bcsr_dec";
  static constexpr bool kParallel = true;

  static BcsrDec<V> convert(const Csr<V>& a, const Candidate& c) {
    return BcsrDec<V>::from_csr(a, c.shape);
  }
  static void validate(const BcsrDec<V>& m) { bspmv::validate(m); }
  static std::size_t working_set_bytes(const BcsrDec<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const BcsrDec<V>& a, const V* x, V* y, Impl impl) {
    pass_run(a, 0, a.blocked().block_rows(), x, y, impl);
  }
  static void spmm_add(const BcsrDec<V>& a, const V* X, V* Y, int k,
                       Impl impl) {
    pass_run_multi(a, 0, a.blocked().block_rows(), X, Y, k, impl);
  }
  static void spmm_store(const BcsrDec<V>& a, const V* X, V* Y, int k,
                         Impl impl) {
    bcsr_spmm_rm(a.blocked(), 0, a.blocked().block_rows(), X, Y, k,
                 impl == Impl::kSimd, false, &a.remainder(),
                 a.remainder_tag().data());
  }

  /// Per-block-row stored values plus the band's remainder nonzeros.
  static std::vector<std::size_t> pass_weights(const BcsrDec<V>& a) {
    return detail::add_band_remainder(
        FormatOps<Bcsr<V>>::pass_weights(a.blocked()), a.remainder(),
        a.shape().r);
  }
  static index_t pass_first_row(const BcsrDec<V>& a, index_t g) {
    return FormatOps<Bcsr<V>>::pass_first_row(a.blocked(), g);
  }
  static void pass_run(const BcsrDec<V>& a, index_t g0, index_t g1,
                       const V* x, V* y, Impl impl) {
    bcsr_kernel<V>(a.shape(), impl == Impl::kSimd, true)(
        a.blocked(), &a.remainder(), a.remainder_tag().data(), g0, g1, x, y);
  }
  static void pass_run_multi(const BcsrDec<V>& a, index_t g0,
                             index_t g1, const V* X, V* Y, int k,
                             Impl impl) {
    bcsr_spmm_rm(a.blocked(), g0, g1, X, Y, k, impl == Impl::kSimd, true,
                 &a.remainder(), a.remainder_tag().data());
  }
};

// ------------------------------------------------------------- BCSD-DEC ----

/// One pass, as BCSR-DEC: each segment adds its full diagonals and then
/// its rows of the CSR remainder into the same sums (src/kernels/
/// bcsd_kernels.cpp, spmm_kernels.cpp).
template <class V>
struct FormatOps<BcsdDec<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kBcsdDec;
  static constexpr const char* kName = "bcsd_dec";
  static constexpr bool kParallel = true;

  static BcsdDec<V> convert(const Csr<V>& a, const Candidate& c) {
    return BcsdDec<V>::from_csr(a, c.b);
  }
  static void validate(const BcsdDec<V>& m) { bspmv::validate(m); }
  static std::size_t working_set_bytes(const BcsdDec<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const BcsdDec<V>& a, const V* x, V* y, Impl impl) {
    pass_run(a, 0, a.blocked().segments(), x, y, impl);
  }
  static void spmm_add(const BcsdDec<V>& a, const V* X, V* Y, int k,
                       Impl impl) {
    pass_run_multi(a, 0, a.blocked().segments(), X, Y, k, impl);
  }
  static void spmm_store(const BcsdDec<V>& a, const V* X, V* Y, int k,
                         Impl impl) {
    bcsd_spmm_rm(a.blocked(), 0, a.blocked().segments(), X, Y, k,
                 impl == Impl::kSimd, false, &a.remainder(),
                 a.remainder_tag().data());
  }

  /// Per-segment stored values plus the segment's remainder nonzeros.
  static std::vector<std::size_t> pass_weights(const BcsdDec<V>& a) {
    return detail::add_band_remainder(
        FormatOps<Bcsd<V>>::pass_weights(a.blocked()), a.remainder(),
        a.b());
  }
  static index_t pass_first_row(const BcsdDec<V>& a, index_t g) {
    return FormatOps<Bcsd<V>>::pass_first_row(a.blocked(), g);
  }
  static void pass_run(const BcsdDec<V>& a, index_t g0, index_t g1,
                       const V* x, V* y, Impl impl) {
    bcsd_kernel<V>(a.b(), impl == Impl::kSimd, true)(
        a.blocked(), &a.remainder(), a.remainder_tag().data(), g0, g1, x, y);
  }
  static void pass_run_multi(const BcsdDec<V>& a, index_t g0,
                             index_t g1, const V* X, V* Y, int k,
                             Impl impl) {
    bcsd_spmm_rm(a.blocked(), g0, g1, X, Y, k, impl == Impl::kSimd, true,
                 &a.remainder(), a.remainder_tag().data());
  }
};

// ---------------------------------------------------------------- UBCSR ----

template <class V>
struct FormatOps<Ubcsr<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kUbcsr;
  static constexpr const char* kName = "ubcsr";
  static constexpr bool kParallel = false;

  static Ubcsr<V> convert(const Csr<V>& a, const Candidate& c) {
    return Ubcsr<V>::from_csr(a, c.shape);
  }
  static void validate(const Ubcsr<V>& m) { bspmv::validate(m); }
  static std::size_t working_set_bytes(const Ubcsr<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const Ubcsr<V>& a, const V* x, V* y, Impl impl) {
    ubcsr_kernel<V>(a.shape(), impl == Impl::kSimd)(a, 0, a.block_rows(), x,
                                                    y);
  }
  static void spmm_add(const Ubcsr<V>& a, const V* X, V* Y, int k,
                       Impl impl) {
    detail::spmm_add_via_spmv(a, X, Y, k, impl);
  }
};

}  // namespace bspmv
