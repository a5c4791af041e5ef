// BCSR format and kernel tests: alignment, padding, round-trips, and
// parameterised kernel-vs-reference sweeps over every shape × impl.
#include <gtest/gtest.h>

#include <tuple>

#include "src/formats/bcsr.hpp"
#include "src/kernels/bcsr_kernels.hpp"
#include "src/kernels/spmv.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::check_against_reference;
using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;
using bspmv::testing::raw_csr;

TEST(Bcsr, HandExampleArrays) {
  // 4x4 matrix, 2x2 blocks:
  //  [1 2 . .]
  //  [. 3 . .]
  //  [. . 4 .]
  //  [. . 5 6]
  Coo<double> coo(4, 4);
  coo.add(0, 0, 1);
  coo.add(0, 1, 2);
  coo.add(1, 1, 3);
  coo.add(2, 2, 4);
  coo.add(3, 2, 5);
  coo.add(3, 3, 6);
  const Bcsr<double> m =
      Bcsr<double>::from_csr(Csr<double>::from_coo(coo), BlockShape{2, 2});
  EXPECT_EQ(m.blocks(), 2u);
  EXPECT_EQ(m.block_rows(), 2);
  EXPECT_EQ(m.nnz(), 6u);
  EXPECT_EQ(m.padding(), 2u);  // one zero in each 2x2 block
  const aligned_vector<index_t> want_bp = {0, 1, 2};
  EXPECT_EQ(m.brow_ptr(), want_bp);
  EXPECT_EQ(m.bcol_ind()[0], 0);
  EXPECT_EQ(m.bcol_ind()[1], 1);
  // Row-major within block: [1 2 / 0 3] then [4 0 / 5 6].
  const aligned_vector<double> want_bval = {1, 2, 0, 3, 4, 0, 5, 6};
  EXPECT_EQ(m.bval(), want_bval);
}

TEST(Bcsr, AlignmentIsEnforced) {
  // A single nonzero at (3, 5) with 2x3 blocks must land in the block
  // anchored at (2, 3): aligned start rows/cols only.
  Coo<double> coo(6, 9);
  coo.add(3, 5, 7.0);
  const Bcsr<double> m =
      Bcsr<double>::from_csr(Csr<double>::from_coo(coo), BlockShape{2, 3});
  ASSERT_EQ(m.blocks(), 1u);
  EXPECT_EQ(m.bcol_ind()[0], 1);  // block column 1 -> columns 3..5
  // Element at local position (row 3-2=1, col 5-3=2) -> offset 1*3+2 = 5.
  EXPECT_DOUBLE_EQ(m.bval()[5], 7.0);
  EXPECT_EQ(m.padding(), 5u);
}

TEST(Bcsr, RoundTripDropsOnlyPadding) {
  for (std::uint64_t seed : {3u, 4u}) {
    Coo<double> coo = random_coo<double>(45, 37, 0.1, seed);
    coo.sort_and_combine();
    const Csr<double> a = Csr<double>::from_coo(coo);
    for (BlockShape shape : {BlockShape{2, 2}, BlockShape{3, 2},
                             BlockShape{1, 8}, BlockShape{8, 1}}) {
      const Bcsr<double> m = Bcsr<double>::from_csr(a, shape);
      Coo<double> back = m.to_coo();
      back.sort_and_combine();
      ASSERT_EQ(back.nnz(), coo.nnz()) << shape.to_string();
      for (std::size_t k = 0; k < coo.nnz(); ++k) {
        EXPECT_EQ(back.entries()[k].row, coo.entries()[k].row);
        EXPECT_EQ(back.entries()[k].col, coo.entries()[k].col);
        EXPECT_DOUBLE_EQ(back.entries()[k].value, coo.entries()[k].value);
      }
    }
  }
}

TEST(Bcsr, SumsDuplicateColumnsLikeCsr) {
  // A validate()-clean Csr may repeat a column within a row; CSR SpMV
  // sums the copies, so the blocked build must sum them too.
  const Csr<double> a = raw_csr(3, 3, {{0, 0}, {1}, {2, 0}});
  for (const BlockShape s : {BlockShape{1, 1}, BlockShape{2, 2}}) {
    const Bcsr<double> m = Bcsr<double>::from_csr(a, s);
    check_against_reference<double>(
        a.to_coo(), [&](const double* x, double* y) { spmv(m, x, y); },
        "bcsr " + s.to_string());
  }
}

TEST(Bcsr, RejectsInvalidShapes) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(8, 8, 0.3, 1));
  EXPECT_THROW(Bcsr<double>::from_csr(a, BlockShape{0, 1}),
               invalid_argument_error);
  EXPECT_THROW(bcsr_kernel<double>(BlockShape{3, 3}, false),
               invalid_argument_error);  // 9 > 8 elements
  EXPECT_THROW(bcsr_kernel<double>(BlockShape{9, 1}, false),
               invalid_argument_error);
  EXPECT_NE(bcsr_kernel<double>(BlockShape{1, 1}, true), nullptr);
}

// ---- Parameterised kernel sweep: shape × impl × value type -------------

struct BcsrCase {
  BlockShape shape;
  bool simd;
};

class BcsrKernels : public ::testing::TestWithParam<BcsrCase> {};

TEST_P(BcsrKernels, DoubleMatchesReference) {
  const auto [shape, simd] = GetParam();
  // Dimensions deliberately NOT multiples of r/c: exercises tail block
  // rows and right-edge padding.
  const Coo<double> coo = random_coo<double>(51, 47, 0.09, 31);
  const Bcsr<double> m = Bcsr<double>::from_csr(Csr<double>::from_coo(coo), shape);
  check_against_reference<double>(
      coo,
      [&](const double* x, double* y) {
        spmv(m, x, y, simd ? Impl::kSimd : Impl::kScalar);
      },
      "bcsr " + shape.to_string() + (simd ? " simd" : " scalar"));
}

TEST_P(BcsrKernels, FloatMatchesReference) {
  const auto [shape, simd] = GetParam();
  const Coo<float> coo = random_coo<float>(51, 47, 0.09, 32);
  const Bcsr<float> m = Bcsr<float>::from_csr(Csr<float>::from_coo(coo), shape);
  check_against_reference<float>(
      coo,
      [&](const float* x, float* y) {
        spmv(m, x, y, simd ? Impl::kSimd : Impl::kScalar);
      },
      "bcsr " + shape.to_string() + (simd ? " simd" : " scalar"));
}

TEST_P(BcsrKernels, BlockyMatrixMatchesReference) {
  const auto [shape, simd] = GetParam();
  const Coo<double> coo = random_blocky_coo<double>(64, 72, 4, 0.2, 0.9, 33);
  const Bcsr<double> m = Bcsr<double>::from_csr(Csr<double>::from_coo(coo), shape);
  check_against_reference<double>(
      coo,
      [&](const double* x, double* y) {
        spmv(m, x, y, simd ? Impl::kSimd : Impl::kScalar);
      },
      "bcsr blocky " + shape.to_string());
}

std::vector<BcsrCase> all_bcsr_cases() {
  std::vector<BcsrCase> cases;
  for (BlockShape s : bcsr_shapes()) {
    cases.push_back({s, false});
    cases.push_back({s, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllShapesAndImpls, BcsrKernels,
                         ::testing::ValuesIn(all_bcsr_cases()),
                         [](const auto& info) {
                           return info.param.shape.to_string() +
                                  (info.param.simd ? "_simd" : "_scalar");
                         });

TEST(BcsrKernels, RangeRespectsBlockRowBounds) {
  const Coo<double> coo = random_coo<double>(40, 40, 0.2, 8);
  const Bcsr<double> m =
      Bcsr<double>::from_csr(Csr<double>::from_coo(coo), BlockShape{4, 2});
  const auto x = bspmv::testing::random_x<double>(40, 2);
  aligned_vector<double> full(40, 0.0), part(40, 0.0);
  const auto fn = bcsr_kernel<double>(BlockShape{4, 2}, false);
  fn(m, nullptr, nullptr, 0, m.block_rows(), x.data(), full.data());
  fn(m, nullptr, nullptr, 2, 5, x.data(), part.data());
  for (index_t i = 0; i < 40; ++i) {
    if (i >= 8 && i < 20)
      EXPECT_DOUBLE_EQ(part[static_cast<std::size_t>(i)],
                       full[static_cast<std::size_t>(i)]);
    else
      EXPECT_DOUBLE_EQ(part[static_cast<std::size_t>(i)], 0.0);
  }
}

TEST(BcsrKernels, TailBlockRowDoesNotWritePastEnd) {
  // 5 rows with r=4: the second block row covers rows 4..7, only row 4
  // exists. Guard values after y[4] must stay intact.
  Coo<double> coo(5, 8);
  for (index_t j = 0; j < 8; ++j) coo.add(4, j, 1.0);
  const Bcsr<double> m =
      Bcsr<double>::from_csr(Csr<double>::from_coo(coo), BlockShape{4, 2});
  aligned_vector<double> buf(8, -123.0);  // y is [0..5); the rest is a guard
  const aligned_vector<double> x(8, 1.0);
  std::fill(buf.begin(), buf.begin() + 5, 0.0);
  const auto fn = bcsr_kernel<double>(BlockShape{4, 2}, false);
  fn(m, nullptr, nullptr, 0, m.block_rows(), x.data(), buf.data());
  EXPECT_DOUBLE_EQ(buf[4], 8.0);
  EXPECT_DOUBLE_EQ(buf[5], -123.0);
  EXPECT_DOUBLE_EQ(buf[6], -123.0);
}

}  // namespace
}  // namespace bspmv
