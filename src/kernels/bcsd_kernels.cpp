#include "src/kernels/bcsd_kernels.hpp"

#include <algorithm>
#include <array>

#include "src/formats/block_shapes.hpp"
#include "src/kernels/block_madd.hpp"
#include "src/kernels/simd.hpp"

namespace bspmv {
namespace detail {

/// One body per diagonal length for BCSD and BCSD-DEC; with Dec the
/// segments go through dec_bands (src/kernels/block_madd.hpp), which adds
/// the CSR remainder rows into the diagonal sums before y is written (a
/// padded BCSD compiles that step out and ignores rem and rem_tag).
template <class V, int B, bool Simd, bool Dec>
void bcsd_spmv_range(const Bcsd<V>& a, const Csr<V>* rem,
                     const rem_tag_t* rem_tag, index_t seg0, index_t seg1,
                     const V* BSPMV_RESTRICT x, V* BSPMV_RESTRICT y) {
  BSPMV_DBG_ASSERT(a.b() == B);
  BSPMV_DBG_ASSERT(seg0 >= 0 && seg1 <= a.segments() && seg0 <= seg1);
  BSPMV_DBG_ASSERT(!Dec || (rem != nullptr && rem->rows() == a.rows() &&
                            (rem_tag != nullptr || rem->nnz() == 0)));
  const index_t* BSPMV_RESTRICT brow_ptr = a.brow_ptr().data();
  const index_t* BSPMV_RESTRICT bcol_ind = a.bcol_ind().data();
  const index_t* BSPMV_RESTRICT nfull = a.full_diags().data();
  const V* BSPMV_RESTRICT bval = a.bval().data();
  const index_t n = a.rows();
  const index_t m = a.cols();
  constexpr int w = simd_width<V>;

  // sum[0..B) += segment s's fully in-range diagonals, which span rows
  // [base, base+B) and columns [j0, j0+B) entirely inside the matrix
  // (only the last segment can be a partial tail; it holds none).
  auto diag_sums = [&](index_t s, V* BSPMV_RESTRICT sum) {
    const index_t d0 = brow_ptr[s];
    const index_t dfull = d0 + nfull[s];
    for (index_t d = d0; d < dfull; ++d) {
      const V* bv = bval + static_cast<std::size_t>(d) * B;
      const V* xp = x + bcol_ind[d];
      if constexpr (Simd && B % w == 0) {
        for (int k = 0; k < B; k += w) {
          simd_t<V> acc = simd_loadu(sum + k);
          acc += simd_loadu(bv + k) * simd_loadu(xp + k);
          simd_storeu(sum + k, acc);
        }
      } else {
        for (int k = 0; k < B; ++k) sum[k] += bv[k] * xp[k];
      }
    }
  };
  // Segment s's boundary diagonals, clamped to the matrix, added to y
  // after the segment's sums.
  auto boundary = [&](index_t s) {
    const index_t base = s * B;
    const index_t d1 = brow_ptr[s + 1];
    for (index_t d = brow_ptr[s] + nfull[s]; d < d1; ++d) {
      const V* bv = bval + static_cast<std::size_t>(d) * B;
      const long long j0 = bcol_ind[d];
      const int kmin = static_cast<int>(std::max<long long>(0, -j0));
      const int kmax = static_cast<int>(std::min<long long>(
          {B, static_cast<long long>(n) - base,
           static_cast<long long>(m) - j0}));
      for (int k = kmin; k < kmax; ++k)
        y[base + k] += bv[k] * x[j0 + k];
    }
  };
  if constexpr (Dec) {
    dec_bands<V, B, Simd>(seg0, seg1, n, rem->row_ptr().data(),
                          rem->col_ind().data(), rem->val().data(), rem_tag,
                          x, y, diag_sums, boundary);
  } else {
    for (index_t s = seg0; s < seg1; ++s) {
      BlockSums<V, B> sums;
      V* sum = sums.data();
      diag_sums(s, sum);
      if (nfull[s] > 0)
        for (int k = 0; k < B; ++k) y[s * B + k] += sum[k];
      boundary(s);
    }
  }
}

template <class V, bool Simd, bool Dec>
struct BcsdTable {
  std::array<BcsdKernelFn<V>, kMaxBlockElems> fn{};

  constexpr BcsdTable() { fill<1>(); }

 private:
  template <int B>
  constexpr void fill() {
    fn[B - 1] = &bcsd_spmv_range<V, B, Simd, Dec>;
    if constexpr (B < kMaxBlockElems) fill<B + 1>();
  }
};

}  // namespace detail

template <class V>
BcsdKernelFn<V> bcsd_kernel(int b, bool simd, bool decomposed) {
  static constexpr detail::BcsdTable<V, false, false> kScalar{};
  static constexpr detail::BcsdTable<V, true, false> kSimd{};
  static constexpr detail::BcsdTable<V, false, true> kScalarDec{};
  static constexpr detail::BcsdTable<V, true, true> kSimdDec{};
  BSPMV_CHECK_MSG(b >= 1 && b <= kMaxBlockElems,
                  "unsupported BCSD block length " + std::to_string(b));
  const auto& table = decomposed ? (simd ? kSimdDec.fn : kScalarDec.fn)
                                 : (simd ? kSimd.fn : kScalar.fn);
  return table[static_cast<std::size_t>(b - 1)];
}

template BcsdKernelFn<float> bcsd_kernel<float>(int, bool, bool);
template BcsdKernelFn<double> bcsd_kernel<double>(int, bool, bool);

}  // namespace bspmv
