// UBCSR (unaligned BCSR extension) tests: padding is never worse than
// aligned BCSR, blocks stay disjoint/in-order, and kernels match the
// reference across every shape × impl.
#include <gtest/gtest.h>

#include "src/formats/bcsr.hpp"
#include "src/formats/ubcsr.hpp"
#include "src/formats/validate.hpp"
#include "src/kernels/spmv.hpp"
#include "src/kernels/ubcsr_kernels.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::check_against_reference;
using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;
using bspmv::testing::raw_csr;

TEST(Ubcsr, UnalignedBlockAvoidsBcsrPadding) {
  // A dense 2x3 patch anchored at column 1 (not a multiple of 3): aligned
  // BCSR needs two blocks (12 stored values), UBCSR needs one (6).
  Coo<double> coo(2, 8);
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 1; j <= 3; ++j) coo.add(i, j, 1.0 + i + j);
  const Csr<double> a = Csr<double>::from_coo(coo);

  const Bcsr<double> aligned = Bcsr<double>::from_csr(a, BlockShape{2, 3});
  const Ubcsr<double> unaligned = Ubcsr<double>::from_csr(a, BlockShape{2, 3});
  EXPECT_EQ(aligned.blocks(), 2u);
  EXPECT_EQ(aligned.padding(), 6u);
  EXPECT_EQ(unaligned.blocks(), 1u);
  EXPECT_EQ(unaligned.padding(), 0u);
  EXPECT_EQ(unaligned.bcol_ind()[0], 1);  // anchored at the first nonzero
}

TEST(Ubcsr, NeverPadsMoreThanAlignedBcsr) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Csr<double> a = Csr<double>::from_coo(
        random_blocky_coo<double>(60, 66, 3, 0.3, 0.8, seed));
    for (BlockShape shape : bcsr_shapes()) {
      const std::size_t pad_aligned =
          Bcsr<double>::from_csr(a, shape).padding();
      const std::size_t pad_unaligned =
          Ubcsr<double>::from_csr(a, shape).padding();
      EXPECT_LE(pad_unaligned, pad_aligned) << shape.to_string();
    }
  }
}

TEST(Ubcsr, BlocksAreDisjointAndOrdered) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(40, 50, 0.15, 5));
  for (BlockShape shape : {BlockShape{2, 3}, BlockShape{4, 2}}) {
    const Ubcsr<double> m = Ubcsr<double>::from_csr(a, shape);
    for (index_t br = 0; br < m.block_rows(); ++br) {
      for (index_t blk = m.brow_ptr()[static_cast<std::size_t>(br)] + 1;
           blk < m.brow_ptr()[static_cast<std::size_t>(br) + 1]; ++blk) {
        // Next anchor starts at or after the previous block's end.
        EXPECT_GE(m.bcol_ind()[static_cast<std::size_t>(blk)],
                  m.bcol_ind()[static_cast<std::size_t>(blk) - 1] + shape.c);
      }
    }
  }
}

TEST(Ubcsr, StatsMatchMaterialisedFormat) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(55, 49, 4, 0.3, 0.7, 7));
  for (BlockShape shape : bcsr_shapes()) {
    const BlockStats st = ubcsr_stats(a, shape);
    const Ubcsr<double> m = Ubcsr<double>::from_csr(a, shape);
    EXPECT_EQ(st.blocks, m.blocks()) << shape.to_string();
    EXPECT_EQ(st.stored_values, m.bval().size()) << shape.to_string();
    EXPECT_EQ(st.padding(), m.padding()) << shape.to_string();
  }
}

TEST(Ubcsr, SumsDuplicateColumnsLikeCsr) {
  // A validate()-clean Csr may repeat a column within a row; CSR SpMV
  // sums the copies, so the blocked build must sum them too.
  const Csr<double> a = raw_csr(3, 3, {{0, 0}, {1}, {2, 0}});
  const Ubcsr<double> m = Ubcsr<double>::from_csr(a, BlockShape{2, 2});
  check_against_reference<double>(
      a.to_coo(), [&](const double* x, double* y) { spmv(m, x, y); },
      "ubcsr 2x2");
  // Two copies of (0, 0) overfill the 1×2 block's one distinct position:
  // nnz counts positions, so padding cannot wrap below zero.
  const Ubcsr<double> over =
      Ubcsr<double>::from_csr(raw_csr(1, 2, {{0, 0, 1}}), BlockShape{1, 2});
  EXPECT_NO_THROW(validate(over));
  EXPECT_EQ(over.nnz(), 2u);
  EXPECT_LE(over.padding(), over.bval().size());
  EXPECT_EQ(over.padding(), 0u);
}

TEST(Ubcsr, RoundTripPreservesEntries) {
  Coo<double> coo = random_coo<double>(37, 43, 0.12, 9);
  coo.sort_and_combine();
  const Csr<double> a = Csr<double>::from_coo(coo);
  for (BlockShape shape : {BlockShape{2, 2}, BlockShape{1, 8},
                           BlockShape{3, 2}, BlockShape{8, 1}}) {
    Coo<double> back = Ubcsr<double>::from_csr(a, shape).to_coo();
    back.sort_and_combine();
    ASSERT_EQ(back.nnz(), coo.nnz()) << shape.to_string();
    for (std::size_t k = 0; k < coo.nnz(); ++k)
      EXPECT_DOUBLE_EQ(back.entries()[k].value, coo.entries()[k].value);
  }
}

struct UbcsrCase {
  BlockShape shape;
  bool simd;
};

class UbcsrKernels : public ::testing::TestWithParam<UbcsrCase> {};

TEST_P(UbcsrKernels, DoubleMatchesReference) {
  const auto [shape, simd] = GetParam();
  // 47 columns (prime): right-edge blocks poke past the matrix and take
  // the clamped path.
  const Coo<double> coo = random_coo<double>(53, 47, 0.1, 11);
  const Ubcsr<double> m =
      Ubcsr<double>::from_csr(Csr<double>::from_coo(coo), shape);
  check_against_reference<double>(
      coo,
      [&](const double* x, double* y) {
        spmv(m, x, y, simd ? Impl::kSimd : Impl::kScalar);
      },
      "ubcsr " + shape.to_string());
}

TEST_P(UbcsrKernels, FloatMatchesReference) {
  const auto [shape, simd] = GetParam();
  const Coo<float> coo = random_blocky_coo<float>(48, 54, 3, 0.3, 0.8, 13);
  const Ubcsr<float> m =
      Ubcsr<float>::from_csr(Csr<float>::from_coo(coo), shape);
  check_against_reference<float>(
      coo,
      [&](const float* x, float* y) {
        spmv(m, x, y, simd ? Impl::kSimd : Impl::kScalar);
      },
      "ubcsr float " + shape.to_string());
}

std::vector<UbcsrCase> all_ubcsr_cases() {
  std::vector<UbcsrCase> cases;
  for (BlockShape s : bcsr_shapes()) {
    cases.push_back({s, false});
    cases.push_back({s, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllShapesAndImpls, UbcsrKernels,
                         ::testing::ValuesIn(all_ubcsr_cases()),
                         [](const auto& info) {
                           return info.param.shape.to_string() +
                                  (info.param.simd ? "_simd" : "_scalar");
                         });

TEST(Ubcsr, EdgeBlockPokingPastColumnsIsSafe) {
  // Single nonzero in the last column: the 1x8 block extends 7 columns
  // past the matrix; only padding lives there.
  Coo<double> coo(1, 10);
  coo.add(0, 9, 3.0);
  const Ubcsr<double> m =
      Ubcsr<double>::from_csr(Csr<double>::from_coo(coo), BlockShape{1, 8});
  ASSERT_EQ(m.blocks(), 1u);
  EXPECT_EQ(m.bcol_ind()[0], 9);
  const aligned_vector<double> x = {0, 0, 0, 0, 0, 0, 0, 0, 0, 2.0};
  aligned_vector<double> y(1, 0.0);
  spmv(m, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  spmv(m, x.data(), y.data(), Impl::kSimd);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
}

}  // namespace
}  // namespace bspmv
