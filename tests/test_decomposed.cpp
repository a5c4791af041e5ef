// Decomposed format tests: the split must be exact (blocked + remainder
// == original), the blocked part must be padding-free, and the fused
// kernels (blocks and CSR remainder in one pass) must match the
// reference on adversarial shapes, through every execution path.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/formats/decomposed.hpp"
#include "src/formats/validate.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::check_against_reference;
using bspmv::testing::chunk_edge_rows;
using bspmv::testing::expect_same_bits;
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
  ASSERT_GT(m.remainder().nnz(), 0u);
  // Both parts, one byte of row tag per remainder entry, x and y once.
  const std::size_t sum_parts = m.blocked().working_set_bytes() +
                                m.remainder().working_set_bytes() +
                                m.remainder().nnz();
  EXPECT_EQ(m.working_set_bytes(), sum_parts - (40 + 40) * 8);
}

// A remainder row tag indexes the kernels' chunk accumulator, so
// validate() must reject a wrong one and a tag array of the wrong length.
template <class F>
void expect_bad_tags_rejected(const F& good, const std::string& what) {
  ASSERT_GT(good.remainder().nnz(), 10u) << what;
  EXPECT_NO_THROW(validate(good)) << what;
  F wrong = good;
  wrong.mutable_remainder_tag()[7] ^= 1;
  EXPECT_THROW(validate(wrong), validation_error) << what;
  F high = good;
  high.mutable_remainder_tag()[7] = 255;
  EXPECT_THROW(validate(high), validation_error) << what;
  F shorter = good;
  shorter.mutable_remainder_tag().pop_back();
  EXPECT_THROW(validate(shorter), validation_error) << what;
  F longer = good;
  longer.mutable_remainder_tag().push_back(0);
  EXPECT_THROW(validate(longer), validation_error) << what;
}

TEST(Dec, ValidateRejectsCorruptRowTag) {
  const Csr<double> a = raw_csr(1553, 1600, chunk_edge_rows());
  expect_bad_tags_rejected(BcsrDec<double>::from_csr(a, BlockShape{3, 1}),
                           "bcsr_dec 3x1");
  expect_bad_tags_rejected(BcsdDec<double>::from_csr(a, 8), "bcsd_dec b=8");
}

TEST(Dec, ValidateRejectsTruncatedRowTags) {
  const Csr<float> a = raw_csr<float>(1553, 1600, chunk_edge_rows());
  BcsrDec<float> r = BcsrDec<float>::from_csr(a, BlockShape{8, 1});
  BcsdDec<float> d = BcsdDec<float>::from_csr(a, 2);
  r.mutable_remainder_tag().resize(r.remainder().nnz() / 2);
  d.mutable_remainder_tag().clear();
  EXPECT_THROW(validate(r), validation_error);
  EXPECT_THROW(validate(d), validation_error);
}

// ------------------------------------------------ fused-kernel edge cases

// For one decomposed matrix, both impls: (a) serial spmv within
// expect_vectors_near of the COO reference, (b) ThreadedSpmv under the
// static and the stealing schedule at each of `threads` bitwise equal to
// serial, (c) spmv_add onto a non-zero y equal to y + spmv within the
// same bound, (d) the kernel run over ranges cut inside and across
// remainder chunks (kRemChunkBands) bitwise equal to one whole run.
template <class F, class V>
void expect_fused_contract(const F& m, const aligned_vector<V>& x,
                           const aligned_vector<V>& ref,
                           const std::string& what,
                           const std::vector<int>& threads_list) {
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

    const auto g = static_cast<index_t>(FormatOps<F>::pass_weights(m).size());
    std::vector<index_t> cuts = {0, 1, 31, 33, 64, 95, g / 2, g - 1, g};
    std::erase_if(cuts, [&](index_t c) { return c < 0 || c > g; });
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    aligned_vector<V> whole(rows, V(0)), pieces(rows, V(0));
    FormatOps<F>::pass_run(m, 0, g, x.data(), whole.data(), kImpls[t]);
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
      FormatOps<F>::pass_run(m, cuts[c], cuts[c + 1], x.data(), pieces.data(),
                             kImpls[t]);
    expect_same_bits(pieces, whole, ctx + " cut ranges");
  }
  for (const int threads : threads_list) {
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
void expect_fused_all_shapes(const Csr<V>& a, const std::string& name,
                             const std::vector<int>& threads) {
  const auto x = random_x<V>(a.cols(), 7);
  aligned_vector<V> ref(static_cast<std::size_t>(a.rows()), V{0});
  a.to_coo().spmv_reference(x.data(), ref.data());
  for (const BlockShape s : bcsr_shapes())
    expect_fused_contract(BcsrDec<V>::from_csr(a, s), x, ref,
                          name + " bcsr_dec " + s.to_string(), threads);
  for (const int b : bcsd_sizes())
    expect_fused_contract(BcsdDec<V>::from_csr(a, b), x, ref,
                          name + " bcsd_dec b=" + std::to_string(b), threads);
}

// Every BCSR shape and BCSD size, float and double.
void expect_fused(index_t rows, index_t cols,
                  const std::vector<std::vector<index_t>>& row_cols,
                  const std::string& name,
                  const std::vector<int>& threads = {1, 2, 4, 7}) {
  expect_fused_all_shapes(raw_csr<double>(rows, cols, row_cols),
                          name + " double", threads);
  expect_fused_all_shapes(raw_csr<float>(rows, cols, row_cols),
                          name + " float", threads);
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

TEST(DecFused, TaskRangesCutRemainderChunks) {
  // Short, long and no remainder rows in runs of whole chunks and across
  // chunk edges; a tail band inside the last chunk for every r, b > 1.
  // Task ranges at 3 and 7 threads start and end inside chunks.
  const auto rc = chunk_edge_rows();
  const Csr<double> a = raw_csr(1553, 1600, rc);
  for (const int band : {2, 3, 4, 5, 6, 7, 8}) ASSERT_NE(1553 % band, 0);
  // 3×1: rows 300-799 take the per-row walk, rows 800-1329 hold none.
  const BcsrDec<double> m = BcsrDec<double>::from_csr(a, BlockShape{3, 1});
  const auto& rp = m.remainder().row_ptr();
  EXPECT_GE(rp[768] - rp[384], 8 * 384);
  EXPECT_EQ(rp[1330], rp[800]);
  EXPECT_GT(rp[300], 0);
  expect_fused(1553, 1600, rc, "chunk edges", {1, 2, 3, 4, 7});
}

TEST(DecFused, FullChunkReachesTagMax) {
  // 300 rows of one scattered entry each: no full 8×1 block or length-8
  // diagonal, so row 255 (tag 255, the last slot of a 256-row chunk)
  // holds a remainder entry at r = 8 and b = 8.
  std::vector<std::vector<index_t>> rc(300);
  for (index_t i = 0; i < 300; ++i)
    rc[static_cast<std::size_t>(i)] = {(37 * i) % 300};
  const Csr<double> a = raw_csr(300, 300, rc);
  const BcsrDec<double> r8 = BcsrDec<double>::from_csr(a, BlockShape{8, 1});
  const BcsdDec<double> d8 = BcsdDec<double>::from_csr(a, 8);
  for (const auto* tags : {&r8.remainder_tag(), &d8.remainder_tag()}) {
    ASSERT_EQ(tags->size(), 300u);
    EXPECT_EQ((*tags)[255], 255);
    EXPECT_EQ((*tags)[256], 0);
  }
  expect_fused(300, 300, rc, "tag 255");
}

TEST(DecFused, RemainderOnlyAcrossChunks) {
  // 1-3 scattered entries per row and no full block, over several chunks.
  std::vector<std::vector<index_t>> rc(1031);
  for (index_t i = 0; i < 1031; ++i)
    for (index_t t = 0; t <= i % 3; ++t)
      rc[static_cast<std::size_t>(i)].push_back((101 * i + 457 * t) % 1031);
  const Csr<double> a = raw_csr(1031, 1031, rc);
  EXPECT_EQ(BcsrDec<double>::from_csr(a, BlockShape{3, 1}).blocked().blocks(),
            0u);
  EXPECT_EQ(BcsdDec<double>::from_csr(a, 2).blocked().blocks(), 0u);
  expect_fused(1031, 1031, rc, "remainder only", {1, 2, 3, 4, 7});
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
