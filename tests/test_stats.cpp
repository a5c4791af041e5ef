// Property tests: the cheap structural estimators in formats/stats must
// agree exactly with the materialised formats for every block shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/formats/stats.hpp"
#include "src/formats/vbl.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;

class StatsVsBcsr : public ::testing::TestWithParam<BlockShape> {};

TEST_P(StatsVsBcsr, EstimatorMatchesMaterialisedFormat) {
  const BlockShape shape = GetParam();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Csr<double> a = Csr<double>::from_coo(
        random_coo<double>(53 + static_cast<index_t>(seed), 47, 0.08, seed));
    const BlockStats st = bcsr_stats(a, shape);
    const Bcsr<double> m = Bcsr<double>::from_csr(a, shape);
    EXPECT_EQ(st.blocks, m.blocks()) << shape.to_string();
    EXPECT_EQ(st.stored_values, m.bval().size()) << shape.to_string();
    EXPECT_EQ(st.covered_nnz, a.nnz()) << shape.to_string();
    EXPECT_EQ(st.padding(), m.padding()) << shape.to_string();
  }
}

TEST_P(StatsVsBcsr, DecEstimatorMatchesMaterialisedDecomposition) {
  const BlockShape shape = GetParam();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(61, 59, 4, 0.25, 0.8, 99));
  const DecompStats st = bcsr_dec_stats(a, shape);
  const BcsrDec<double> m = BcsrDec<double>::from_csr(a, shape);
  EXPECT_EQ(st.full.blocks, m.blocked().blocks());
  EXPECT_EQ(st.remainder_nnz, m.remainder().nnz());
  EXPECT_EQ(st.full.covered_nnz + st.remainder_nnz, a.nnz());
  EXPECT_EQ(st.full.padding(), 0u);  // full blocks never pad
}

INSTANTIATE_TEST_SUITE_P(AllShapes, StatsVsBcsr,
                         ::testing::ValuesIn(bcsr_shapes()),
                         [](const auto& info) {
                           return info.param.to_string();
                         });

class StatsVsBcsd : public ::testing::TestWithParam<int> {};

TEST_P(StatsVsBcsd, EstimatorMatchesMaterialisedFormat) {
  const int b = GetParam();
  for (std::uint64_t seed : {4u, 5u}) {
    const Csr<double> a = Csr<double>::from_coo(
        random_coo<double>(50, 64 + static_cast<index_t>(seed), 0.06, seed));
    const BlockStats st = bcsd_stats(a, b);
    const Bcsd<double> m = Bcsd<double>::from_csr(a, b);
    EXPECT_EQ(st.blocks, m.blocks()) << "b=" << b;
    EXPECT_EQ(st.stored_values, m.bval().size()) << "b=" << b;
    EXPECT_EQ(st.padding(), m.padding()) << "b=" << b;
  }
}

TEST_P(StatsVsBcsd, DecEstimatorMatchesMaterialisedDecomposition) {
  const int b = GetParam();
  // Diagonal-heavy structure so full diagonals actually occur.
  Coo<double> coo(64, 64);
  Xoshiro256 rng(7);
  for (index_t i = 0; i < 64; ++i) {
    coo.add(i, i, 1.0);
    if (i + 1 < 64) coo.add(i, i + 1, 1.0);
    if (rng.uniform() < 0.3)
      coo.add(i, static_cast<index_t>(rng.below(64)), 1.0);
  }
  coo.sort_and_combine();
  const Csr<double> a = Csr<double>::from_coo(coo);
  const DecompStats st = bcsd_dec_stats(a, b);
  const BcsdDec<double> m = BcsdDec<double>::from_csr(a, b);
  EXPECT_EQ(st.full.blocks, m.blocked().blocks());
  EXPECT_EQ(st.remainder_nnz, m.remainder().nnz());
  EXPECT_EQ(st.full.covered_nnz + st.remainder_nnz, a.nnz());
}

INSTANTIATE_TEST_SUITE_P(AllSizes, StatsVsBcsd,
                         ::testing::ValuesIn(bcsd_sizes()));

TEST(StatsVbl, BlockCountMatchesMaterialisedFormat) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const Csr<double> a = Csr<double>::from_coo(
        random_coo<double>(40, 300, 0.15, seed));
    EXPECT_EQ(vbl_block_count(a), Vbl<double>::from_csr(a).blocks());
  }
}

TEST(StatsVbl, DenseRowSplitsAt255) {
  Coo<double> coo(1, 600);
  for (index_t j = 0; j < 600; ++j) coo.add(0, j, 1.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  // 600 consecutive = 255 + 255 + 90 -> 3 blocks.
  EXPECT_EQ(vbl_block_count(a), 3u);
}

TEST(Stats, DenseMatrixHasNoPadding) {
  // Every aligned block of a dense matrix whose dims are multiples of the
  // shape is completely full.
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(24, 24, 1.01, 1));
  for (BlockShape shape : bcsr_shapes()) {
    if (24 % shape.r != 0 || 24 % shape.c != 0) continue;
    const BlockStats st = bcsr_stats(a, shape);
    EXPECT_EQ(st.padding(), 0u) << shape.to_string();
    EXPECT_EQ(st.blocks,
              static_cast<std::size_t>((24 / shape.r) * (24 / shape.c)));
  }
}

TEST(Stats, FillRatioBounds) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(30, 30, 0.05, 77));
  for (BlockShape shape : bcsr_shapes()) {
    const BlockStats st = bcsr_stats(a, shape);
    EXPECT_GT(st.fill(), 0.0);
    EXPECT_LE(st.fill(), 1.0);
    // With sparse random structure, bigger blocks can only pad more:
    EXPECT_GE(st.stored_values, a.nnz());
  }
}

// ------------------------------------------- adversarial exactness ----
//
// The counting scan must match a brute-force reference on any valid Csr,
// including inputs no generator produces: validate(Csr) checks only the
// column range, so unsorted and duplicate columns within a row are legal.

// Reference: per band, count every block key in a std::map. `key` gets the
// unshifted key (j / c for BCSR, j - (i - band_start) for BCSD, which is
// negative below a band's first-row diagonal).
template <class KeyFn>
BlockingStats reference_stats(const Csr<double>& a, int band,
                              std::size_t elems, KeyFn key) {
  BlockingStats st;
  for (index_t base = 0; base < a.rows(); base += band) {
    std::map<long long, std::size_t> count;
    for (index_t i = base; i < std::min<index_t>(a.rows(), base + band); ++i)
      for (index_t k = a.row_ptr()[static_cast<std::size_t>(i)];
           k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
        ++count[key(i - base, a.col_ind()[static_cast<std::size_t>(k)])];
    for (const auto& [unused, n] : count) {
      st.padded.blocks += 1;
      st.padded.stored_values += elems;
      st.padded.covered_nnz += n;
      if (n == elems) {
        st.dec.full.blocks += 1;
        st.dec.full.stored_values += elems;
        st.dec.full.covered_nnz += n;
      } else {
        st.dec.remainder_nnz += n;
      }
    }
  }
  return st;
}

void expect_same(const BlockStats& got, const BlockStats& want,
                 const std::string& what) {
  EXPECT_EQ(got.blocks, want.blocks) << what;
  EXPECT_EQ(got.stored_values, want.stored_values) << what;
  EXPECT_EQ(got.covered_nnz, want.covered_nnz) << what;
}

void expect_same(const DecompStats& got, const DecompStats& want,
                 const std::string& what) {
  expect_same(got.full, want.full, what + " dec");
  EXPECT_EQ(got.remainder_nnz, want.remainder_nnz) << what << " dec";
}

// Every padded and DEC field of every BCSR shape and BCSD size, through
// the one-pass engine and through each of the four thin wrappers.
void expect_matches_reference(const Csr<double>& a, const std::string& name) {
  for (const BlockShape s : bcsr_shapes()) {
    const std::string what = name + " bcsr " + s.to_string();
    const BlockingStats want = reference_stats(
        a, s.r, static_cast<std::size_t>(s.elems()),
        [c = s.c](index_t, index_t j) -> long long { return j / c; });
    const BlockingStats got = bcsr_blocking_stats(a, s);
    expect_same(got.padded, want.padded, what);
    expect_same(got.dec, want.dec, what);
    expect_same(bcsr_stats(a, s), want.padded, what + " wrapper");
    expect_same(bcsr_dec_stats(a, s), want.dec, what + " wrapper");
  }
  for (const int b : bcsd_sizes()) {
    const std::string what = name + " bcsd b=" + std::to_string(b);
    const BlockingStats want = reference_stats(
        a, b, static_cast<std::size_t>(b),
        [](index_t di, index_t j) -> long long { return j - di; });
    const BlockingStats got = bcsd_blocking_stats(a, b);
    expect_same(got.padded, want.padded, what);
    expect_same(got.dec, want.dec, what);
    expect_same(bcsd_stats(a, b), want.padded, what + " wrapper");
    expect_same(bcsd_dec_stats(a, b), want.dec, what + " wrapper");
  }
}

// Raw construction: rows given as column lists, kept in the given order.
Csr<double> raw_csr(index_t rows, index_t cols,
                    const std::vector<std::vector<index_t>>& row_cols) {
  aligned_vector<index_t> row_ptr{0};
  aligned_vector<index_t> col_ind;
  for (index_t i = 0; i < rows; ++i) {
    if (static_cast<std::size_t>(i) < row_cols.size())
      for (const index_t j : row_cols[static_cast<std::size_t>(i)])
        col_ind.push_back(j);
    row_ptr.push_back(static_cast<index_t>(col_ind.size()));
  }
  aligned_vector<double> val(col_ind.size(), 1.0);
  return Csr<double>(rows, cols, std::move(row_ptr), std::move(col_ind),
                     std::move(val));
}

TEST(StatsAdversarial, UnsortedAndDuplicateColumnsWithEmptyRows) {
  // 11 rows (prime: rows % r != 0 for every r > 1), empty rows inside and
  // at the end, duplicates that complete or overfill a block on their own.
  const Csr<double> a = raw_csr(
      11, 13,
      {{5, 1, 0, 12, 1},
       {},
       {3, 2, 2, 3, 0, 1},
       {12, 11, 10, 9, 8, 7, 6, 5},
       {0, 0, 0, 0, 0, 0, 0, 0},
       {4, 6, 5, 4},
       {},
       {9, 3, 9, 3, 9, 3},
       {1, 2},
       {0, 12, 6}});
  expect_matches_reference(a, "unsorted");
}

TEST(StatsAdversarial, RandomUnsortedDuplicateRows) {
  Xoshiro256 rng(2024);
  for (const index_t rows : {1, 17, 61}) {
    const index_t cols = 29;
    std::vector<std::vector<index_t>> row_cols(static_cast<std::size_t>(rows));
    for (auto& r : row_cols) {
      const std::uint64_t len = rng.below(12);  // 0 leaves the row empty
      for (std::uint64_t k = 0; k < len; ++k)
        r.push_back(static_cast<index_t>(rng.below(cols)));
    }
    expect_matches_reference(raw_csr(rows, cols, row_cols),
                             "random rows=" + std::to_string(rows));
  }
}

TEST(StatsAdversarial, EmptyMatrices) {
  expect_matches_reference(raw_csr(9, 7, {}), "no nonzeros");
  expect_matches_reference(raw_csr(0, 0, {}), "0x0");
  expect_matches_reference(raw_csr(0, 5, {}), "0x5");
}

TEST(StatsAdversarial, FewerColumnsThanBlockWidth) {
  // cols = 3 < c for every c in 4..8, and cols = 1.
  expect_matches_reference(
      raw_csr(10, 3, {{0, 1, 2}, {2}, {1, 0}, {}, {2, 2}, {0, 1, 2}, {1}}),
      "cols=3");
  expect_matches_reference(raw_csr(5, 1, {{0}, {0, 0}, {}, {0}}), "cols=1");
}

TEST(StatsAdversarial, OneRowOfOneMillionColumns) {
  const index_t n = index_t{1} << 20;
  expect_matches_reference(
      raw_csr(1, n, {{n - 1, 0, 7, n - 2, 7, n / 2, n / 2 + 1}}), "1xn");
}

TEST(StatsAdversarial, OneMillionRowsOfOneColumn) {
  const index_t n = index_t{1} << 20;
  std::vector<std::vector<index_t>> row_cols(static_cast<std::size_t>(n));
  for (const index_t i : {index_t{0}, index_t{1}, index_t{2}, index_t{9},
                          n / 2, n - 3, n - 1})
    row_cols[static_cast<std::size_t>(i)] = {0};
  row_cols[5] = {0, 0};
  expect_matches_reference(raw_csr(n, 1, row_cols), "nx1");
}

TEST(StatsAdversarial, BcsdKeysBelowTheBandsFirstRowDiagonal) {
  // Column 0 on every row, plus the subdiagonal: in every band all rows
  // below the first give j - (i - band_start) < 0.
  std::vector<std::vector<index_t>> row_cols(23);
  for (index_t i = 0; i < 23; ++i) {
    row_cols[static_cast<std::size_t>(i)] = {0};
    if (i >= 1) row_cols[static_cast<std::size_t>(i)].push_back(i - 1);
    if (i >= 7) row_cols[static_cast<std::size_t>(i)].push_back(i - 7);
  }
  expect_matches_reference(raw_csr(23, 23, row_cols), "lower");
  // The same on a matrix far wider than tall.
  expect_matches_reference(
      raw_csr(8, 3, {{}, {0}, {1, 0}, {0, 2, 1}, {0}, {2, 0}, {1}, {0}}),
      "lower narrow");
}

}  // namespace
}  // namespace bspmv
