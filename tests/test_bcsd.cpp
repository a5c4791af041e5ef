// BCSD format and kernel tests: segment alignment, boundary diagonals,
// the full-diagonal fast-path prefix, and kernel-vs-reference sweeps.
#include <gtest/gtest.h>

#include "src/formats/bcsd.hpp"
#include "src/kernels/bcsd_kernels.hpp"
#include "src/kernels/spmv.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::check_against_reference;
using bspmv::testing::random_coo;
using bspmv::testing::raw_csr;

TEST(Bcsd, HandExampleDiagonals) {
  // 4x4, b = 2. Segment 0 (rows 0-1): entries (0,0),(1,1) share diagonal
  // j0=0; (0,2) has j0=2. Segment 1 (rows 2-3): (2,3),(3,0).
  Coo<double> coo(4, 4);
  coo.add(0, 0, 1);
  coo.add(1, 1, 2);
  coo.add(0, 2, 3);
  coo.add(2, 3, 4);
  coo.add(3, 0, 5);
  const Bcsd<double> m = Bcsd<double>::from_csr(Csr<double>::from_coo(coo), 2);
  EXPECT_EQ(m.segments(), 2);
  EXPECT_EQ(m.blocks(), 4u);   // diagonals: {0, 2} in seg0, {3, -1} in seg1
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_EQ(m.padding(), 3u);  // 4 diagonals * 2 - 5
  // Segment 0: both diagonals start in range; j0=0 full, j0=2 full (cols 2,3).
  EXPECT_EQ(m.full_diags()[0], 2);
  // Segment 1: j0=3 partial (cols 3,4 -> 4 out of range), j0=-1 partial.
  EXPECT_EQ(m.full_diags()[1], 0);
}

TEST(Bcsd, SegmentAlignmentIsEnforced) {
  // An entry at row 5 with b=4 belongs to the segment starting at row 4,
  // so its diagonal start column is col - (5-4).
  Coo<double> coo(8, 8);
  coo.add(5, 3, 9.0);
  const Bcsd<double> m = Bcsd<double>::from_csr(Csr<double>::from_coo(coo), 4);
  ASSERT_EQ(m.blocks(), 1u);
  EXPECT_EQ(m.bcol_ind()[0], 2);  // j0 = 3 - 1 = 2
  EXPECT_DOUBLE_EQ(m.bval()[1], 9.0);  // element k=1 (row 5 = base 4 + 1)
}

TEST(Bcsd, NegativeStartColumnDiagonal) {
  // Entry (3,0) with b=4: j0 = 0 - 3 = -3, a boundary diagonal.
  Coo<double> coo(4, 4);
  coo.add(3, 0, 2.5);
  const Bcsd<double> m = Bcsd<double>::from_csr(Csr<double>::from_coo(coo), 4);
  ASSERT_EQ(m.blocks(), 1u);
  EXPECT_EQ(m.bcol_ind()[0], -3);
  EXPECT_EQ(m.full_diags()[0], 0);
  // Kernel must still produce the right product without out-of-range reads.
  const double x[] = {10, 0, 0, 0};
  double y[4];
  spmv(m, x, y);
  EXPECT_DOUBLE_EQ(y[3], 25.0);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(Bcsd, FullDiagPrefixInvariant) {
  const Coo<double> coo = random_coo<double>(70, 60, 0.08, 17);
  for (int b : bcsd_sizes()) {
    const Bcsd<double> m = Bcsd<double>::from_csr(Csr<double>::from_coo(coo), b);
    for (index_t s = 0; s < m.segments(); ++s) {
      const index_t d0 = m.brow_ptr()[static_cast<std::size_t>(s)];
      const index_t d1 = m.brow_ptr()[static_cast<std::size_t>(s) + 1];
      const index_t nfull = m.full_diags()[static_cast<std::size_t>(s)];
      ASSERT_LE(nfull, d1 - d0);
      for (index_t d = d0; d < d1; ++d) {
        const index_t j0 = m.bcol_ind()[static_cast<std::size_t>(d)];
        const bool full = j0 >= 0 && j0 + b <= m.cols() && s * b + b <= m.rows();
        EXPECT_EQ(full, d - d0 < nfull)
            << "b=" << b << " seg=" << s << " d=" << d;
      }
    }
  }
}

TEST(Bcsd, SumsDuplicateColumnsLikeCsr) {
  // A validate()-clean Csr may repeat a column within a row; CSR SpMV
  // sums the copies, so the diagonal build must sum them too.
  const Csr<double> a = raw_csr(3, 3, {{0, 0}, {1}, {2, 0}});
  for (const int b : {1, 2, 3}) {
    const Bcsd<double> m = Bcsd<double>::from_csr(a, b);
    check_against_reference<double>(
        a.to_coo(), [&](const double* x, double* y) { spmv(m, x, y); },
        "bcsd " + std::to_string(b));
  }
}

TEST(Bcsd, RoundTripPreservesEntries) {
  Coo<double> coo = random_coo<double>(33, 29, 0.12, 5);
  coo.sort_and_combine();
  for (int b : {2, 3, 5, 8}) {
    Coo<double> back =
        Bcsd<double>::from_csr(Csr<double>::from_coo(coo), b).to_coo();
    back.sort_and_combine();
    ASSERT_EQ(back.nnz(), coo.nnz()) << "b=" << b;
    for (std::size_t k = 0; k < coo.nnz(); ++k)
      EXPECT_DOUBLE_EQ(back.entries()[k].value, coo.entries()[k].value);
  }
}

struct BcsdCase {
  int b;
  bool simd;
};

class BcsdKernels : public ::testing::TestWithParam<BcsdCase> {};

TEST_P(BcsdKernels, DoubleMatchesReference) {
  const auto [b, simd] = GetParam();
  // 53 rows: not a multiple of any b in 2..8 -> exercises the last short
  // segment; dense near-diagonal structure creates full diagonals.
  Coo<double> coo(53, 49);
  Xoshiro256 rng(41);
  for (index_t i = 0; i < 53; ++i) {
    for (index_t off = -2; off <= 2; ++off) {
      const index_t j = i + off;
      if (j >= 0 && j < 49 && rng.uniform() < 0.8)
        coo.add(i, j, 0.1 + rng.uniform());
    }
    if (rng.uniform() < 0.4)
      coo.add(i, static_cast<index_t>(rng.below(49)), 0.1 + rng.uniform());
  }
  coo.sort_and_combine();
  const Bcsd<double> m = Bcsd<double>::from_csr(Csr<double>::from_coo(coo), b);
  check_against_reference<double>(
      coo,
      [&](const double* x, double* y) {
        spmv(m, x, y, simd ? Impl::kSimd : Impl::kScalar);
      },
      "bcsd b=" + std::to_string(b) + (simd ? " simd" : " scalar"));
}

TEST_P(BcsdKernels, FloatMatchesReference) {
  const auto [b, simd] = GetParam();
  const Coo<float> coo = random_coo<float>(47, 61, 0.1, 43);
  const Bcsd<float> m = Bcsd<float>::from_csr(Csr<float>::from_coo(coo), b);
  check_against_reference<float>(
      coo,
      [&](const float* x, float* y) {
        spmv(m, x, y, simd ? Impl::kSimd : Impl::kScalar);
      },
      "bcsd float b=" + std::to_string(b));
}

std::vector<BcsdCase> all_bcsd_cases() {
  std::vector<BcsdCase> cases;
  for (int b : bcsd_sizes()) {
    cases.push_back({b, false});
    cases.push_back({b, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSizesAndImpls, BcsdKernels,
                         ::testing::ValuesIn(all_bcsd_cases()),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param.b) +
                                  (info.param.simd ? "_simd" : "_scalar");
                         });

TEST(BcsdKernels, PureDiagonalMatrixUsesOnlyFastPath) {
  // Full main diagonal on a 64x64 matrix with b=4: every diagonal block
  // is full and in range.
  Coo<double> coo(64, 64);
  for (index_t i = 0; i < 64; ++i) coo.add(i, i, 2.0);
  const Bcsd<double> m = Bcsd<double>::from_csr(Csr<double>::from_coo(coo), 4);
  EXPECT_EQ(m.blocks(), 16u);
  EXPECT_EQ(m.padding(), 0u);
  for (index_t s = 0; s < m.segments(); ++s)
    EXPECT_EQ(m.full_diags()[static_cast<std::size_t>(s)], 1);
  check_against_reference<double>(
      coo, [&](const double* x, double* y) { spmv(m, x, y); }, "bcsd diag");
}

}  // namespace
}  // namespace bspmv
