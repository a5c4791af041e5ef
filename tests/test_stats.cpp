// Property tests: the cheap structural estimators in formats/stats must
// agree exactly with the materialised formats for every block shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/working_set.hpp"
#include "src/formats/band_scan.hpp"
#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/formats/stats.hpp"
#include "src/formats/validate.hpp"
#include "src/formats/vbl.hpp"
#include "src/gen/suite.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/task_pool.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;
using bspmv::testing::raw_csr;

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
// The counting scan and the conversions built on it must match
// brute-force references on any valid Csr, including inputs no generator
// produces: validate(Csr) checks only the column range, so unsorted and
// duplicate columns within a row are legal. Every padded and DEC build
// must (a) pass validate(), (b) multiply like the CSR it came from,
// (c) have the block counts and working set candidate_cost priced, and
// (d) equal a std::map reference build, array for array.

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

// The arrays of one blocked build; the remainder stays empty when padded.
struct Arrays {
  std::vector<index_t> brow_ptr{0};
  std::vector<index_t> bcol_ind;
  std::vector<index_t> full_diags;
  std::vector<double> bval;
  std::vector<index_t> rem_ptr{0};
  std::vector<index_t> rem_col;
  std::vector<double> rem_val;
};

// Reference build: per band, a std::map from the unshifted block key (j/c
// for BCSR, j - (i - band_start) for BCSD) to its count and summed block
// values. Padded layouts store every key; DEC layouts store the keys
// counted `elems` times and send every other nonzero, in input order, to
// the remainder. Keys with front(key, band_start) come first (BCSD's fully
// in-range diagonals), and both runs stay sorted.
template <class KeyFn, class OffFn, class FrontFn>
Arrays reference_build(const Csr<double>& a, int band, std::size_t elems,
                       bool dec, KeyFn key, OffFn off, FrontFn front) {
  struct Block {
    std::size_t n = 0;
    std::vector<double> v;
  };
  Arrays out;
  for (index_t base = 0; base < a.rows(); base += band) {
    const index_t end = std::min<index_t>(a.rows(), base + band);
    auto for_each_entry = [&](auto fn) {
      for (index_t i = base; i < end; ++i)
        for (index_t k = a.row_ptr()[static_cast<std::size_t>(i)];
             k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
          fn(i, a.col_ind()[static_cast<std::size_t>(k)],
             a.val()[static_cast<std::size_t>(k)]);
    };
    std::map<long long, Block> blocks;
    for_each_entry([&](index_t i, index_t j, double v) {
      Block& b = blocks[key(i - base, j)];
      b.v.resize(elems);
      b.n += 1;
      b.v[off(i - base, j)] += v;
    });
    auto stored = [&](const Block& b) { return !dec || b.n == elems; };
    index_t nfront = 0;
    for (const bool first_run : {true, false})
      for (const auto& [k, b] : blocks)
        if (stored(b) && front(k, base) == first_run) {
          out.bcol_ind.push_back(static_cast<index_t>(k));
          out.bval.insert(out.bval.end(), b.v.begin(), b.v.end());
          nfront += first_run;
        }
    out.full_diags.push_back(nfront);
    out.brow_ptr.push_back(static_cast<index_t>(out.bcol_ind.size()));
    if (!dec) continue;
    for (index_t i = base; i < end; ++i) {
      for (index_t k = a.row_ptr()[static_cast<std::size_t>(i)];
           k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
        const index_t j = a.col_ind()[static_cast<std::size_t>(k)];
        if (stored(blocks[key(i - base, j)])) continue;
        out.rem_col.push_back(j);
        out.rem_val.push_back(a.val()[static_cast<std::size_t>(k)]);
      }
      out.rem_ptr.push_back(static_cast<index_t>(out.rem_col.size()));
    }
  }
  return out;
}

template <class T>
std::vector<T> vec(const aligned_vector<T>& v) {
  return std::vector<T>(v.begin(), v.end());
}

void expect_remainder(const Csr<double>& rem, const Arrays& want,
                      const std::string& what) {
  EXPECT_EQ(vec(rem.row_ptr()), want.rem_ptr) << what;
  EXPECT_EQ(vec(rem.col_ind()), want.rem_col) << what;
  EXPECT_EQ(vec(rem.val()), want.rem_val) << what;
}

template <class Format>
void expect_spmv_matches_csr(const Csr<double>& a, const Format& f,
                             const std::string& what) {
  const auto x = testing::random_x<double>(a.cols(), 7);
  aligned_vector<double> ref(static_cast<std::size_t>(a.rows()));
  spmv(a, x.data(), ref.data());
  for (const Impl impl : {Impl::kScalar, Impl::kSimd}) {
    aligned_vector<double> y(static_cast<std::size_t>(a.rows()),
                             std::numeric_limits<double>::quiet_NaN());
    spmv(f, x.data(), y.data(), impl);
    testing::expect_vectors_near(y.data(), ref.data(), a.rows(),
                                 what + " " + impl_name(impl));
  }
}

// `nb`: the blocks of the blocked part, then the remainder's nonzeros.
void expect_priced(const Csr<double>& a, const Candidate& c,
                   const std::vector<std::size_t>& nb, std::size_t ws,
                   const std::string& what) {
  const CandidateCost cost = candidate_cost(a, c);
  ASSERT_EQ(cost.parts.size(), nb.size()) << what;
  for (std::size_t p = 0; p < nb.size(); ++p)
    EXPECT_EQ(cost.parts[p].nb, nb[p]) << what << " part " << p;
  EXPECT_EQ(cost.total_ws(), ws) << what;
}

void expect_bcsr_build(const Csr<double>& a, BlockShape s, bool dec,
                       const std::string& name) {
  const std::string what = name + (dec ? " dec" : " padded");
  const Arrays want = reference_build(
      a, s.r, static_cast<std::size_t>(s.elems()), dec,
      [c = s.c](index_t, index_t j) -> long long { return j / c; },
      [c = s.c](index_t di, index_t j) {
        return static_cast<std::size_t>(di * c + j % c);
      },
      [](long long, index_t) { return true; });
  Candidate c;
  c.kind = dec ? FormatKind::kBcsrDec : FormatKind::kBcsr;
  c.shape = s;
  auto expect_blocked = [&](const Bcsr<double>& b) {
    EXPECT_EQ(vec(b.brow_ptr()), want.brow_ptr) << what;
    EXPECT_EQ(vec(b.bcol_ind()), want.bcol_ind) << what;
    EXPECT_EQ(vec(b.bval()), want.bval) << what;
  };
  if (dec) {
    const BcsrDec<double> f = BcsrDec<double>::from_csr(a, s);
    EXPECT_NO_THROW(validate(f)) << what;
    expect_spmv_matches_csr(a, f, what);
    expect_priced(a, c, {f.blocked().blocks(), f.remainder().nnz()},
                  f.working_set_bytes(), what);
    expect_blocked(f.blocked());
    expect_remainder(f.remainder(), want, what);
  } else {
    const Bcsr<double> f = Bcsr<double>::from_csr(a, s);
    EXPECT_NO_THROW(validate(f)) << what;
    expect_spmv_matches_csr(a, f, what);
    expect_priced(a, c, {f.blocks()}, f.working_set_bytes(), what);
    expect_blocked(f);
  }
}

void expect_bcsd_build(const Csr<double>& a, int b, bool dec,
                       const std::string& name) {
  const std::string what = name + (dec ? " dec" : " padded");
  const Arrays want = reference_build(
      a, b, static_cast<std::size_t>(b), dec,
      [](index_t di, index_t j) -> long long { return j - di; },
      [](index_t di, index_t) { return static_cast<std::size_t>(di); },
      [&](long long j0, index_t base) {
        return j0 >= 0 && j0 + b <= a.cols() && base + b <= a.rows();
      });
  Candidate c;
  c.kind = dec ? FormatKind::kBcsdDec : FormatKind::kBcsd;
  c.b = b;
  auto expect_blocked = [&](const Bcsd<double>& d) {
    EXPECT_EQ(vec(d.brow_ptr()), want.brow_ptr) << what;
    EXPECT_EQ(vec(d.bcol_ind()), want.bcol_ind) << what;
    EXPECT_EQ(vec(d.full_diags()), want.full_diags) << what;
    EXPECT_EQ(vec(d.bval()), want.bval) << what;
  };
  if (dec) {
    const BcsdDec<double> f = BcsdDec<double>::from_csr(a, b);
    EXPECT_NO_THROW(validate(f)) << what;
    expect_spmv_matches_csr(a, f, what);
    expect_priced(a, c, {f.blocked().blocks(), f.remainder().nnz()},
                  f.working_set_bytes(), what);
    expect_blocked(f.blocked());
    expect_remainder(f.remainder(), want, what);
  } else {
    const Bcsd<double> f = Bcsd<double>::from_csr(a, b);
    EXPECT_NO_THROW(validate(f)) << what;
    expect_spmv_matches_csr(a, f, what);
    expect_priced(a, c, {f.blocks()}, f.working_set_bytes(), what);
    expect_blocked(f);
  }
}

// Every padded and DEC field of every BCSR shape and BCSD size, through
// the one-pass engine and through each of the four thin wrappers; then
// both builds of each blocking against the reference build.
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
    for (const bool dec : {false, true}) expect_bcsr_build(a, s, dec, what);
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
    for (const bool dec : {false, true}) expect_bcsd_build(a, b, dec, what);
  }
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

/// Every model blocking, by band height.
detail::HeightPlan model_plan() {
  detail::HeightPlan plan{};
  for (const BlockShape shape : bcsr_shapes())
    plan[static_cast<std::size_t>(shape.r - 1)].bcsr |= 1u << (shape.c - 1);
  for (const int b : bcsd_sizes())
    plan[static_cast<std::size_t>(b - 1)].bcsd = true;
  return plan;
}

TEST(StatsScratch, OneScratchServesEveryBlockingWithoutGrowing) {
  // scan_scratch sizes the buffers for every fused scan up front, so scans
  // in it never allocate (the ranking's pool threads rely on that), and
  // every scan leaves the counters zeroed for the next. Each height is
  // scanned in row chunks of 840 rows, whose counts must add up to a
  // whole-matrix scan's.
  std::vector<std::vector<index_t>> tail(13);
  tail[12] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};  // widest rows last
  const index_t n = index_t{1} << 20;
  std::vector<std::pair<std::string, Csr<double>>> mats;
  mats.emplace_back("blocky", Csr<double>::from_coo(random_blocky_coo<double>(
                                  71, 67, 3, 0.3, 0.8, 5)));
  mats.emplace_back("tail", raw_csr(13, 11, tail));
  mats.emplace_back("unsorted",
                    raw_csr(11, 13,
                            {{5, 1, 0, 12, 1}, {}, {3, 2, 2, 3, 0, 1}}));
  mats.emplace_back("1xn", raw_csr(1, n, {{n - 1, 0, 7, n - 2, 7, n / 2}}));
  mats.emplace_back("0x0", raw_csr(0, 0, {}));
  for (auto& m : bspmv::testing::chunk_edge_csrs())
    mats.push_back(std::move(m));
  const detail::HeightPlan plan = model_plan();
  for (const auto& [name, a] : mats) {
    const auto rows = static_cast<std::size_t>(a.rows());
    detail::ScanScratch s = detail::scan_scratch(a, plan);
    const std::vector<std::uint8_t> count0 = s.count;
    const std::uint8_t* count = s.count.data();
    const std::uint32_t* touched = s.touched.data();
    const std::size_t touched_size = s.touched.size();
    for (int h = 1; h <= kMaxBlockElems; ++h) {
      const detail::HeightBlockings want =
          plan[static_cast<std::size_t>(h - 1)];
      detail::HeightStats got;
      for (std::size_t lo = 0; lo < rows; lo += detail::kChunkRows)
        detail::add_height_stats(a, h, want, lo,
                                 std::min(rows, lo + detail::kChunkRows), s,
                                 got);
      for (int c = 1; c <= kMaxBlockElems; ++c) {
        if (!(want.bcsr >> (c - 1) & 1u)) continue;
        const BlockShape shape{h, c};
        const BlockingStats& g = got.bcsr[static_cast<std::size_t>(c - 1)];
        const BlockingStats w = bcsr_blocking_stats(a, shape);
        expect_same(g.padded, w.padded, name + " " + shape.to_string());
        expect_same(g.dec, w.dec, name + " " + shape.to_string());
      }
      if (want.bcsd) {
        const BlockingStats w = bcsd_blocking_stats(a, h);
        const std::string what = name + " b=" + std::to_string(h);
        expect_same(got.bcsd.padded, w.padded, what);
        expect_same(got.bcsd.dec, w.dec, what);
      }
    }
    EXPECT_EQ(s.count.data(), count) << name;
    EXPECT_EQ(s.touched.data(), touched) << name;
    EXPECT_EQ(s.touched.size(), touched_size) << name;
    EXPECT_EQ(s.count, count0) << name;  // all zero, as made
  }
}

// ---- conversion on the pool: row chunks, one task each

/// A pool job of one task on slot 0, which runs fn on the calling thread
/// while the job holds the pool.
class InsidePool final : public TaskPool::Job {
 public:
  InsidePool(int workers, std::function<void()> fn)
      : home_(static_cast<std::size_t>(workers) + 1, 1), fn_(std::move(fn)) {
    home_[0] = 0;
  }
  std::span<const std::uint32_t> home() const override { return home_; }
  bool steal() const override { return false; }
  std::size_t run_task(std::uint32_t, int) override {
    fn_();
    return 1;
  }
  void finish(std::span<const TaskPool::WorkerLoad>) override {}

 private:
  std::vector<std::uint32_t> home_;
  std::function<void()> fn_;
};

template <class V>
void expect_same_csr(const Csr<V>& got, const Csr<V>& want,
                     const std::string& what) {
  EXPECT_EQ(vec(got.row_ptr()), vec(want.row_ptr())) << what;
  EXPECT_EQ(vec(got.col_ind()), vec(want.col_ind())) << what;
  bspmv::testing::expect_same_bits(got.val(), want.val(), what + " val");
}

template <class B>
void expect_same_blocked(const B& got, const B& want, const std::string& what) {
  EXPECT_EQ(got.nnz(), want.nnz()) << what;
  EXPECT_EQ(vec(got.brow_ptr()), vec(want.brow_ptr())) << what;
  EXPECT_EQ(vec(got.bcol_ind()), vec(want.bcol_ind())) << what;
  bspmv::testing::expect_same_bits(got.bval(), want.bval(), what + " bval");
}

template <class D>
void expect_same_dec(const D& got, const D& want, const std::string& what) {
  EXPECT_EQ(got.nnz(), want.nnz()) << what;
  expect_same_blocked(got.blocked(), want.blocked(), what);
  expect_same_csr(got.remainder(), want.remainder(), what + " remainder");
  EXPECT_EQ(vec(got.remainder_tag()), vec(want.remainder_tag())) << what;
}

/// Convert `a` to every blocked model candidate twice, on the shared
/// pool (its row chunks as tasks on every slot) and inline inside a busy
/// pool (every chunk in order on one thread), and require the same
/// arrays. A SIMD candidate converts exactly like its scalar twin, so the
/// scalar candidates cover every conversion. With `every_pass_pooled`,
/// also require that a matrix of several row chunks ran the shape, size
/// and fill passes each as one pool task per chunk.
void expect_pooled_equals_inline(const Csr<double>& a, const std::string& name,
                                 bool every_pass_pooled = false) {
  const auto pool = detail::setup_pool();
  const std::size_t chunks =
      static_cast<std::size_t>(a.rows()) >= 2 * detail::kChunkRows
          ? detail::row_chunks(a, static_cast<std::size_t>(pool->workers()))
                    .size() -
                1
          : 1;
  for (const Candidate& c : model_candidates(false)) {
    const std::string what = name + " " + c.id();
    auto both = [&](auto convert) {
      using F = decltype(convert());
      std::optional<F> busy;
      InsidePool job(pool->workers(), [&] { busy.emplace(convert()); });
      pool->run(job);
      const std::uint64_t before = pool->stats().submitted;
      F pooled = convert();
      if (every_pass_pooled && pool->workers() > 1 && chunks > 1) {
        EXPECT_EQ(pool->stats().submitted - before, 3 * chunks) << what;
      }
      return std::pair<F, F>(std::move(pooled), std::move(*busy));
    };
    switch (c.kind) {
      case FormatKind::kBcsr: {
        const auto [p, i] =
            both([&] { return Bcsr<double>::from_csr(a, c.shape); });
        expect_same_blocked(p, i, what);
        break;
      }
      case FormatKind::kBcsrDec: {
        const auto [p, i] =
            both([&] { return BcsrDec<double>::from_csr(a, c.shape); });
        expect_same_dec(p, i, what);
        break;
      }
      case FormatKind::kBcsd: {
        const auto [p, i] =
            both([&] { return Bcsd<double>::from_csr(a, c.b); });
        expect_same_blocked(p, i, what);
        EXPECT_EQ(vec(p.full_diags()), vec(i.full_diags())) << what;
        break;
      }
      case FormatKind::kBcsdDec: {
        const auto [p, i] =
            both([&] { return BcsdDec<double>::from_csr(a, c.b); });
        expect_same_dec(p, i, what);
        EXPECT_EQ(vec(p.blocked().full_diags()), vec(i.blocked().full_diags()))
            << what;
        break;
      }
      default:
        break;
    }
  }
}

TEST(Conversion, PooledEqualsInlineBitwise) {
  // The chunk-edge matrices (1 to 2521 rows) and the StatsAdversarial
  // shapes; the tiny suite is ConversionOnSuite below, one case each.
  const auto pool = detail::setup_pool();
  const TaskPoolStats before = pool->stats();
  for (const auto& [name, a] : bspmv::testing::chunk_edge_csrs()) {
    if (pool->workers() > 1 &&
        static_cast<std::size_t>(a.rows()) >= 2 * detail::kChunkRows) {
      // The dense last row is alone in the last chunk.
      const auto chunk =
          detail::row_chunks(a, static_cast<std::size_t>(pool->workers()));
      EXPECT_EQ(chunk[chunk.size() - 2], static_cast<std::size_t>(a.rows() - 1))
          << name;
    }
    expect_pooled_equals_inline(a, name, /*every_pass_pooled=*/true);
  }
  for (const auto& [name, a] : bspmv::testing::adversarial_csrs())
    expect_pooled_equals_inline(a, name);
  if (pool->workers() > 1) {
    // Every conversion inside the busy pool ran inline.
    EXPECT_GT(pool->stats().inline_runs, before.inline_runs);
  }
}

class ConversionOnSuite : public ::testing::TestWithParam<int> {};

TEST_P(ConversionOnSuite, PooledEqualsInlineBitwise) {
  const int id = GetParam();
  expect_pooled_equals_inline(build_suite_csr<double>(id, SuiteScale::kTiny),
                              "suite #" + std::to_string(id));
}

INSTANTIATE_TEST_SUITE_P(Tiny, ConversionOnSuite,
                         ::testing::Range(1, static_cast<int>(
                                                 suite_catalog().size()) + 1));

}  // namespace
}  // namespace bspmv
