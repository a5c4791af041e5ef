// Parallel substrate tests: partition invariants and threaded-vs-serial
// SpMV parity, driven by the format registry — every format whose
// FormatOps opts into kParallel is exercised automatically, so a new
// parallel format gets coverage with no test edits.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "src/formats/registry.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::expect_vectors_near;
using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;
using bspmv::testing::random_x;

// ----------------------------------------------------- partitioning ----

TEST(Partition, BoundariesAreMonotoneAndCover) {
  const std::vector<std::size_t> w = {5, 1, 1, 9, 0, 0, 3, 7, 2, 2};
  for (int parts : {1, 2, 3, 4, 7, 10, 15}) {
    const auto b = balanced_partition(w, parts);
    ASSERT_EQ(b.size(), static_cast<std::size_t>(parts) + 1);
    EXPECT_EQ(b.front(), 0);
    EXPECT_EQ(b.back(), static_cast<index_t>(w.size()));
    for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GE(b[i], b[i - 1]);
  }
}

TEST(Partition, BalancesWeightWithinOneUnit) {
  // Uniform weights must split almost perfectly.
  const std::vector<std::size_t> w(100, 4);
  const auto b = balanced_partition(w, 4);
  for (int p = 0; p < 4; ++p) {
    const index_t len = b[static_cast<std::size_t>(p) + 1] -
                        b[static_cast<std::size_t>(p)];
    EXPECT_GE(len, 24);
    EXPECT_LE(len, 26);
  }
}

TEST(Partition, HeavyUnitDominatesItsPart) {
  // One huge unit: every other part can be tiny/empty but coverage holds.
  std::vector<std::size_t> w(10, 1);
  w[5] = 1000;
  const auto b = balanced_partition(w, 3);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), 10);
}

TEST(Partition, EmptyWeights) {
  const std::vector<std::size_t> w;
  const auto b = balanced_partition(w, 4);
  for (index_t x : b) EXPECT_EQ(x, 0);
}

TEST(Partition, RejectsZeroParts) {
  const std::vector<std::size_t> w = {1};
  EXPECT_THROW(balanced_partition(w, 0), invalid_argument_error);
}

TEST(Partition, PaddingAwareWeights) {
  // BCSR weights count padded zeros: a block row with 2 blocks of 2x2
  // weighs 8 regardless of actual nonzeros.
  Coo<double> coo(4, 8);
  coo.add(0, 0, 1.0);            // block (0,0): 1 nnz, weight still 4
  coo.add(2, 0, 1.0);
  coo.add(2, 2, 1.0);
  coo.add(3, 1, 1.0);
  const Bcsr<double> m =
      Bcsr<double>::from_csr(Csr<double>::from_coo(coo), BlockShape{2, 2});
  const auto w = FormatOps<Bcsr<double>>::pass_weights(m);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 4u);   // one block
  EXPECT_EQ(w[1], 8u);   // two blocks
}

// ------------------------------------------------ threaded equality ----

/// Representative candidates for one parallelisable format kind (block
/// shapes / diagonal lengths that hit aligned, tall, wide and padded
/// cases). The impl field is ignored; the test iterates both impls.
std::vector<Candidate> parity_candidates(FormatKind kind) {
  std::vector<Candidate> out;
  switch (kind) {
    case FormatKind::kCsr:
      out.push_back(Candidate{kind, BlockShape{1, 1}, 0, Impl::kScalar});
      break;
    case FormatKind::kBcsr:
    case FormatKind::kBcsrDec:
      for (BlockShape shape : {BlockShape{2, 2}, BlockShape{3, 1},
                               BlockShape{4, 2}, BlockShape{1, 8}})
        out.push_back(Candidate{kind, shape, 0, Impl::kScalar});
      break;
    case FormatKind::kBcsd:
    case FormatKind::kBcsdDec:
      for (int b : {2, 4, 7})
        out.push_back(Candidate{kind, BlockShape{1, 1}, b, Impl::kScalar});
      break;
    default:
      ADD_FAILURE() << "no parity candidates for parallel format "
                    << format_name(kind)
                    << " — extend parity_candidates()";
  }
  return out;
}

class ThreadedParity : public ::testing::TestWithParam<int> {};

// Every parallelisable format in the registry × scalar/simd, at the
// parameterised thread count. Threading only re-partitions rows across
// the same kernels, so the comparison is bitwise: each y element is
// produced by exactly one kernel invocation with the same per-row
// floating-point order as the serial run.
TEST_P(ThreadedParity, RegistryFormatsMatchSerialBitwise) {
  const int threads = GetParam();
  const Coo<double> coo = random_blocky_coo<double>(90, 84, 3, 0.3, 0.8, 2);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const auto x = random_x<double>(84, 4);
  const std::size_t n = 90;

  int parallel_formats = 0;
  for_each_format<double>([&](auto tag) {
    using F = typename decltype(tag)::type;
    using Ops = FormatOps<F>;
    if constexpr (Ops::kParallel) {
      ++parallel_formats;
      for (const Candidate& c : parity_candidates(Ops::kKind)) {
        const F m = Ops::convert(a, c);
        for (Impl impl : {Impl::kScalar, Impl::kSimd}) {
          aligned_vector<double> ys(n, 0.0), yp(n, -1.0);
          spmv(m, x.data(), ys.data(), impl);
          ThreadedSpmv<F>(m, threads).run(x.data(), yp.data(), impl);
          for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(yp[i], ys[i])
                << c.id() << " impl=" << impl_name(impl) << " threads="
                << threads << " row " << i;
        }
      }
    }
  });
  // §V-A parallelises CSR, BCSR, BCSD and the two decomposed variants.
  EXPECT_EQ(parallel_formats, 5);
}

TEST_P(ThreadedParity, FloatMatchesSerialBitwise) {
  const int threads = GetParam();
  const Coo<float> coo = random_coo<float>(77, 83, 0.08, 9);
  const Csr<float> a = Csr<float>::from_coo(coo);
  const auto x = random_x<float>(83, 10);
  aligned_vector<float> ys(77, 0.0f), yp(77, -1.0f);
  spmv(a, x.data(), ys.data());
  ThreadedSpmv<Csr<float>>(a, threads).run(x.data(), yp.data());
  for (std::size_t i = 0; i < 77; ++i) EXPECT_EQ(yp[i], ys[i]) << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadedParity,
                         ::testing::Values(1, 2, 4, 7));

TEST(ThreadedSpmvEdge, MoreThreadsThanRows) {
  Coo<double> coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(2, 2, 2.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const aligned_vector<double> x = {1.0, 1.0, 1.0};
  aligned_vector<double> y(3, -1.0);
  ThreadedSpmv<Csr<double>>(a, 8).run(x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(ThreadedSpmvEdge, RejectsZeroThreads) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(4, 4, 0.5, 1));
  EXPECT_THROW(ThreadedSpmv<Csr<double>>(a, 0), invalid_argument_error);
}

TEST(ThreadedSpmvEdge, MoreThreadsThanRowsAllFormats) {
  // 3 rows, 16 threads: most partitions are empty and every runner must
  // still cover all rows exactly once.
  Coo<double> coo(3, 12);
  coo.add(0, 0, 1.0);
  coo.add(0, 11, 2.0);
  coo.add(1, 5, 3.0);
  coo.add(2, 2, 4.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const auto x = random_x<double>(12, 13);
  aligned_vector<double> ys(3, 0.0);
  spmv(a, x.data(), ys.data());

  aligned_vector<double> y(3, -1.0);
  ThreadedSpmv<Csr<double>>(a, 16).run(x.data(), y.data());
  expect_vectors_near(y.data(), ys.data(), 3, "csr 16 threads");

  const Bcsr<double> mb = Bcsr<double>::from_csr(a, BlockShape{2, 2});
  y.assign(3, -1.0);
  ThreadedSpmv<Bcsr<double>>(mb, 16).run(x.data(), y.data(), Impl::kScalar);
  expect_vectors_near(y.data(), ys.data(), 3, "bcsr 16 threads");

  const Bcsd<double> md = Bcsd<double>::from_csr(a, 4);
  y.assign(3, -1.0);
  ThreadedSpmv<Bcsd<double>>(md, 16).run(x.data(), y.data());
  expect_vectors_near(y.data(), ys.data(), 3, "bcsd 16 threads");

  const BcsrDec<double> mbd = BcsrDec<double>::from_csr(a, BlockShape{2, 2});
  y.assign(3, -1.0);
  ThreadedSpmv<BcsrDec<double>>(mbd, 16).run(x.data(), y.data());
  expect_vectors_near(y.data(), ys.data(), 3, "bcsr_dec 16 threads");
}

TEST(ThreadedSpmvEdge, SingleRowMatrix) {
  // One row can never be split: exactly one thread does all the work.
  Coo<double> coo(1, 40);
  for (index_t j = 0; j < 40; j += 3) coo.add(0, j, 1.0 + j);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const auto x = random_x<double>(40, 17);
  aligned_vector<double> ys(1, 0.0);
  spmv(a, x.data(), ys.data());
  for (int threads : {1, 2, 7}) {
    aligned_vector<double> y(1, -1.0);
    ThreadedSpmv<Csr<double>>(a, threads).run(x.data(), y.data());
    expect_vectors_near(y.data(), ys.data(), 1,
                        "single row, " + std::to_string(threads) + " threads");
  }
}

TEST(Partition, MorePartsThanUnitsYieldsEmptyTailParts) {
  // parts > units: boundaries stay monotone and cover; surplus parts are
  // empty ranges, which the runners must tolerate as no-ops.
  const std::vector<std::size_t> w = {3, 3, 3};
  const auto b = balanced_partition(w, 8);
  ASSERT_EQ(b.size(), 9u);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), 3);
  int empty = 0, covered = 0;
  for (std::size_t i = 1; i < b.size(); ++i) {
    ASSERT_GE(b[i], b[i - 1]);
    const index_t len = b[i] - b[i - 1];
    if (len == 0) ++empty;
    covered += len;
  }
  EXPECT_EQ(covered, 3);
  EXPECT_GE(empty, 5);  // pigeonhole: at most 3 of 8 parts are nonempty
}

TEST(Partition, AllZeroWeightsStillCover) {
  // Rows with zero weight (empty rows) must still be assigned somewhere.
  const std::vector<std::size_t> w(6, 0);
  const auto b = balanced_partition(w, 3);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.front(), 0);
  EXPECT_EQ(b.back(), 6);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GE(b[i], b[i - 1]);
}

}  // namespace
}  // namespace bspmv
