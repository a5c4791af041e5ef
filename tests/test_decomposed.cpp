// Decomposed format tests: the split must be exact (blocked + remainder
// == original), the blocked part must be padding-free, and the fused
// kernels (blocks and CSR remainder in one pass) must match the
// reference on adversarial shapes, through every execution path.
#include <gtest/gtest.h>

#include <cstring>

#include "src/formats/decomposed.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::check_against_reference;
using bspmv::testing::expect_vectors_near;
using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;
using bspmv::testing::random_x;
using bspmv::testing::raw_csr;

TEST(BcsrDec, BlockedPartIsPaddingFree) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(60, 60, 3, 0.3, 0.85, 1));
  for (BlockShape shape : bcsr_shapes()) {
    const BcsrDec<double> m = BcsrDec<double>::from_csr(a, shape);
    EXPECT_EQ(m.blocked().padding(), 0u) << shape.to_string();
    EXPECT_EQ(m.blocked().nnz() + m.remainder().nnz(), a.nnz())
        << shape.to_string();
  }
}

TEST(BcsrDec, SplitReassemblesToOriginal) {
  Coo<double> coo = random_blocky_coo<double>(48, 48, 4, 0.3, 0.9, 2);
  coo.sort_and_combine();
  const Csr<double> a = Csr<double>::from_coo(coo);
  const BcsrDec<double> m = BcsrDec<double>::from_csr(a, BlockShape{4, 2});
  Coo<double> back = m.to_coo();
  back.sort_and_combine();
  ASSERT_EQ(back.nnz(), coo.nnz());
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(back.entries()[k].row, coo.entries()[k].row);
    EXPECT_EQ(back.entries()[k].col, coo.entries()[k].col);
    EXPECT_DOUBLE_EQ(back.entries()[k].value, coo.entries()[k].value);
  }
}

TEST(BcsrDec, FullyBlockyMatrixLeavesEmptyRemainder) {
  // All 2x2 blocks full -> remainder must be empty.
  const Coo<double> coo = random_blocky_coo<double>(32, 32, 2, 0.4, 1.01, 3);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const BcsrDec<double> m = BcsrDec<double>::from_csr(a, BlockShape{2, 2});
  EXPECT_EQ(m.remainder().nnz(), 0u);
  EXPECT_EQ(m.blocked().nnz(), a.nnz());
}

TEST(BcsrDec, FullyIrregularMatrixLeavesEmptyBlockedPart) {
  // Isolated entries, one per 4x4 block region -> no full 2x2 block.
  Coo<double> coo(32, 32);
  for (index_t i = 0; i < 32; i += 4) coo.add(i, i, 1.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const BcsrDec<double> m = BcsrDec<double>::from_csr(a, BlockShape{2, 2});
  EXPECT_EQ(m.blocked().blocks(), 0u);
  EXPECT_EQ(m.remainder().nnz(), a.nnz());
}

TEST(BcsdDec, BlockedPartIsPaddingFree) {
  Coo<double> coo(60, 60);
  Xoshiro256 rng(4);
  for (index_t i = 0; i < 60; ++i) {
    coo.add(i, i, 1.0);
    if (i + 3 < 60 && rng.uniform() < 0.5) coo.add(i, i + 3, 2.0);
  }
  coo.sort_and_combine();
  const Csr<double> a = Csr<double>::from_coo(coo);
  for (int b : bcsd_sizes()) {
    const BcsdDec<double> m = BcsdDec<double>::from_csr(a, b);
    EXPECT_EQ(m.blocked().padding(), 0u) << "b=" << b;
    EXPECT_EQ(m.blocked().nnz() + m.remainder().nnz(), a.nnz()) << "b=" << b;
  }
}

struct DecCase {
  int shape_or_b;  // index into bcsr_shapes() or the b value
  bool bcsd;
  bool simd;
};

class DecKernels : public ::testing::TestWithParam<DecCase> {};

TEST_P(DecKernels, MatchesReference) {
  const auto [p, is_bcsd, simd] = GetParam();
  const Impl impl = simd ? Impl::kSimd : Impl::kScalar;
  const Coo<double> coo = random_blocky_coo<double>(59, 53, 3, 0.3, 0.8, 11);
  const Csr<double> a = Csr<double>::from_coo(coo);
  if (is_bcsd) {
    const BcsdDec<double> m = BcsdDec<double>::from_csr(a, p);
    check_against_reference<double>(
        coo, [&](const double* x, double* y) { spmv(m, x, y, impl); },
        "bcsd_dec b=" + std::to_string(p));
  } else {
    const BlockShape shape = bcsr_shapes()[static_cast<std::size_t>(p)];
    const BcsrDec<double> m = BcsrDec<double>::from_csr(a, shape);
    check_against_reference<double>(
        coo, [&](const double* x, double* y) { spmv(m, x, y, impl); },
        "bcsr_dec " + shape.to_string());
  }
}

std::vector<DecCase> all_dec_cases() {
  std::vector<DecCase> cases;
  for (std::size_t i = 0; i < bcsr_shapes().size(); ++i) {
    cases.push_back({static_cast<int>(i), false, false});
    cases.push_back({static_cast<int>(i), false, true});
  }
  for (int b : bcsd_sizes()) {
    cases.push_back({b, true, false});
    cases.push_back({b, true, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllShapes, DecKernels,
                         ::testing::ValuesIn(all_dec_cases()));

TEST(DecKernels, FloatMatchesReference) {
  const Coo<float> coo = random_blocky_coo<float>(44, 52, 2, 0.35, 0.85, 13);
  const Csr<float> a = Csr<float>::from_coo(coo);
  const BcsrDec<float> m1 = BcsrDec<float>::from_csr(a, BlockShape{2, 2});
  check_against_reference<float>(
      coo, [&](const float* x, float* y) { spmv(m1, x, y, Impl::kSimd); },
      "bcsr_dec float");
  const BcsdDec<float> m2 = BcsdDec<float>::from_csr(a, 4);
  check_against_reference<float>(
      coo, [&](const float* x, float* y) { spmv(m2, x, y, Impl::kScalar); },
      "bcsd_dec float");
}

TEST(Dec, WorkingSetCountsVectorsOnce) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(40, 40, 2, 0.3, 0.9, 17));
  const BcsrDec<double> m = BcsrDec<double>::from_csr(a, BlockShape{2, 2});
  const std::size_t sum_parts =
      m.blocked().working_set_bytes() + m.remainder().working_set_bytes();
  EXPECT_EQ(m.working_set_bytes(), sum_parts - (40 + 40) * 8);
}

// ------------------------------------------------ fused-kernel edge cases

template <class V>
void expect_same_bits(const aligned_vector<V>& got,
                      const aligned_vector<V>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (got.empty() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(V)) == 0)
    return;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " row " << i;
}

// For one decomposed matrix, both impls: (a) serial spmv within
// expect_vectors_near of the COO reference, (b) ThreadedSpmv under the
// static and the stealing schedule at 1/2/4/7 threads bitwise equal to
// serial, (c) spmv_add
// onto a non-zero y equal to y + spmv within the same bound.
template <class F, class V>
void expect_fused_contract(const F& m, const aligned_vector<V>& x,
                           const aligned_vector<V>& ref,
                           const std::string& what) {
  const index_t n = m.rows();
  const auto rows = static_cast<std::size_t>(n);
  const aligned_vector<V> y0 = random_x<V>(n, 31);
  constexpr Impl kImpls[] = {Impl::kScalar, Impl::kSimd};
  aligned_vector<V> serial[2];
  for (int t = 0; t < 2; ++t) {
    const std::string ctx = what + " " + impl_name(kImpls[t]);
    serial[t].assign(rows, V(99));  // poison: must be overwritten
    spmv(m, x.data(), serial[t].data(), kImpls[t]);
    expect_vectors_near(serial[t].data(), ref.data(), n, ctx);
    aligned_vector<V> y = y0, want(rows);
    spmv_add(m, x.data(), y.data(), kImpls[t]);
    for (std::size_t i = 0; i < rows; ++i) want[i] = y0[i] + serial[t][i];
    expect_vectors_near(y.data(), want.data(), n, ctx + " spmv_add");
  }
  for (const int threads : {1, 2, 4, 7}) {
    const ThreadedSpmv<F> bulk(m, threads, ExecBackend::kBulk);
    const ThreadedSpmv<F> tasks(m, threads, ExecBackend::kTasks);
    for (int t = 0; t < 2; ++t) {
      const std::string ctx = what + " " + impl_name(kImpls[t]) + " " +
                              std::to_string(threads) + " threads";
      aligned_vector<V> yb(rows, V(-1)), yt(rows, V(-1));
      bulk.run(x.data(), yb.data(), kImpls[t]);
      tasks.run(x.data(), yt.data(), kImpls[t]);
      expect_same_bits(yb, serial[t], ctx + " bulk");
      expect_same_bits(yt, serial[t], ctx + " tasks");
    }
  }
}

template <class V>
void expect_fused_all_shapes(const Csr<V>& a, const std::string& name) {
  const auto x = random_x<V>(a.cols(), 7);
  aligned_vector<V> ref(static_cast<std::size_t>(a.rows()), V{0});
  a.to_coo().spmv_reference(x.data(), ref.data());
  for (const BlockShape s : bcsr_shapes())
    expect_fused_contract(BcsrDec<V>::from_csr(a, s), x, ref,
                          name + " bcsr_dec " + s.to_string());
  for (const int b : bcsd_sizes())
    expect_fused_contract(BcsdDec<V>::from_csr(a, b), x, ref,
                          name + " bcsd_dec b=" + std::to_string(b));
}

// Every BCSR shape and BCSD size, float and double.
void expect_fused(index_t rows, index_t cols,
                  const std::vector<std::vector<index_t>>& row_cols,
                  const std::string& name) {
  expect_fused_all_shapes(raw_csr<double>(rows, cols, row_cols),
                          name + " double");
  expect_fused_all_shapes(raw_csr<float>(rows, cols, row_cols),
                          name + " float");
}

TEST(DecFused, PartialTailBandWithRemainder) {
  // 11 rows (prime: rows % r != 0 for every r > 1) with entries in the
  // last row, so every tail band carries remainder entries; unsorted and
  // duplicate columns, empty rows.
  expect_fused(11, 13,
               {{5, 1, 0, 12, 1},
                {},
                {3, 2, 2, 3, 0, 1},
                {12, 11, 10, 9, 8, 7, 6, 5},
                {0, 0, 0, 0, 0, 0, 0, 0},
                {4, 6, 5, 4},
                {},
                {9, 3, 9, 3, 9, 3},
                {1, 2},
                {0, 12, 6},
                {10, 2, 2, 11}},
               "tail");
}

TEST(DecFused, BlockOnlyAndRemainderOnlyBands) {
  // Rows 0-7 dense over columns 0-7 (full blocks, no remainder, for every
  // r and c dividing 8), rows 8-15 the diagonal (full BCSD blocks, no
  // remainder, for every b dividing 8), rows 16-23 one isolated entry
  // each (remainder, no full block, for every shape but 1x1), rows 24-26
  // a partial tail band.
  std::vector<std::vector<index_t>> rc(27);
  for (index_t i = 0; i < 8; ++i)
    rc[static_cast<std::size_t>(i)] = {0, 1, 2, 3, 4, 5, 6, 7};
  for (index_t i = 8; i < 16; ++i) rc[static_cast<std::size_t>(i)] = {i};
  for (index_t i = 16; i < 24; ++i)
    rc[static_cast<std::size_t>(i)] = {(3 * i) % 29};
  rc[24] = {1};
  rc[25] = {28};
  rc[26] = {0, 1};
  const Csr<double> a = raw_csr(27, 29, rc);
  // The input holds what it claims for the 2x2 and b = 2 splits.
  const BcsrDec<double> r2 = BcsrDec<double>::from_csr(a, BlockShape{2, 2});
  const BcsdDec<double> d2 = BcsdDec<double>::from_csr(a, 2);
  const auto& rp = r2.remainder().row_ptr();
  EXPECT_GT(r2.blocked().brow_ptr()[1], 0);  // band 0: blocks ...
  EXPECT_EQ(rp[2], 0);                       // ... and no remainder
  EXPECT_EQ(r2.blocked().brow_ptr()[9], r2.blocked().brow_ptr()[8]);
  EXPECT_GT(rp[18], rp[16]);  // band 8: remainder only
  EXPECT_GT(d2.blocked().brow_ptr()[5], d2.blocked().brow_ptr()[4]);
  EXPECT_EQ(d2.remainder().row_ptr()[10], d2.remainder().row_ptr()[8]);
  expect_fused(27, 29, rc, "mixed bands");
}

TEST(DecFused, LongRemainderRows) {
  // 12 scattered entries per row (the vector row-dot walk of the SIMD
  // kernels), 17 rows so the tail band is long too.
  std::vector<std::vector<index_t>> rc(17);
  for (index_t i = 0; i < 17; ++i)
    for (index_t j = 0; j < 12; ++j)
      rc[static_cast<std::size_t>(i)].push_back((5 * j + 3 * i) % 64);
  expect_fused(17, 64, rc, "long rows");
}

TEST(DecFused, EmptyMatrices) {
  expect_fused(9, 7, {}, "no nonzeros");
  expect_fused(0, 0, {}, "0x0");
  expect_fused(0, 5, {}, "0x5");
}

TEST(DecFused, OneRowOfOneMillionColumns) {
  const index_t n = index_t{1} << 20;
  expect_fused(1, n, {{n - 1, 0, 7, n - 2, 7, n / 2, n / 2 + 1}}, "1xn");
}

TEST(DecFused, OneMillionRowsOfOneColumn) {
  const index_t n = index_t{1} << 20;
  std::vector<std::vector<index_t>> rc(static_cast<std::size_t>(n));
  for (const index_t i : {index_t{0}, index_t{1}, index_t{2}, index_t{9},
                          n / 2, n - 3, n - 1})
    rc[static_cast<std::size_t>(i)] = {0};
  rc[5] = {0, 0};
  expect_fused(n, 1, rc, "nx1");
}

TEST(DecFused, BcsdKeysBelowTheBandsFirstRowDiagonal) {
  // Column 0 on every row, plus two subdiagonals: in every band all rows
  // below the first give j - (i - band_start) < 0.
  std::vector<std::vector<index_t>> rc(23);
  for (index_t i = 0; i < 23; ++i) {
    rc[static_cast<std::size_t>(i)] = {0};
    if (i >= 1) rc[static_cast<std::size_t>(i)].push_back(i - 1);
    if (i >= 7) rc[static_cast<std::size_t>(i)].push_back(i - 7);
  }
  expect_fused(23, 23, rc, "lower");
  expect_fused(8, 3, {{}, {0}, {1, 0}, {0, 2, 1}, {0}, {2, 0}, {1}, {0}},
               "lower narrow");
}

}  // namespace
}  // namespace bspmv
