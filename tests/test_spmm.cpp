// Multi-vector (SpMM) tests: registry-driven run_multi parity against k
// independent single-vector runs — bitwise, per the determinism contract
// in src/kernels/spmm_kernels.hpp — plus the generic spmm front-end over
// every registry format, the engine run_multi plumbing, and a tiny smoke
// suite (registered as the `spmm_smoke` ctest) for sanitizer CI.
//
// Bitwise references: the k > 1 kernels accumulate every vector in the
// SCALAR kernel's order (SIMD lanes span vectors, never one vector's
// reduction), so the reference is a scalar spmv regardless of impl.
// k == 1 must hit the existing single-vector path, so its reference is
// spmv with the requested impl.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/engine.hpp"
#include "src/formats/registry.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::expect_vectors_near;
using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_x;

constexpr int kRhsCounts[] = {1, 2, 4, 8};

/// Representative candidates per parallel format kind (mirrors
/// test_parallel.cpp: aligned, tall, wide and padded block cases). 8×1
/// and b = 7 hold too many rows for one pass of 8 scalar accumulators per
/// row, so k = 8 splits into two passes of 4 vectors.
std::vector<Candidate> parity_candidates(FormatKind kind) {
  std::vector<Candidate> out;
  switch (kind) {
    case FormatKind::kCsr:
      out.push_back(Candidate{kind, BlockShape{1, 1}, 0, Impl::kScalar});
      break;
    case FormatKind::kBcsr:
    case FormatKind::kBcsrDec:
      for (BlockShape shape : {BlockShape{2, 2}, BlockShape{3, 1},
                               BlockShape{4, 2}, BlockShape{1, 8},
                               BlockShape{8, 1}})
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

/// k independent right-hand sides, each with its own seed.
template <class V>
std::vector<aligned_vector<V>> make_rhs(index_t cols, int k,
                                        std::uint64_t seed0) {
  std::vector<aligned_vector<V>> xs;
  for (int j = 0; j < k; ++j)
    xs.push_back(random_x<V>(cols, seed0 + static_cast<std::uint64_t>(j)));
  return xs;
}

/// Interleave the k vectors into one row-major block.
template <class V>
aligned_vector<V> pack(const std::vector<aligned_vector<V>>& xs) {
  const std::size_t k = xs.size();
  const std::size_t n = xs[0].size();
  aligned_vector<V> out(k * n);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < n; ++i) out[i * k + j] = xs[j][i];
  return out;
}

/// Element (i, j) of a row-major rows×k block.
template <class V>
V at(const aligned_vector<V>& block, std::size_t k, std::size_t i,
     std::size_t j) {
  return block[i * k + j];
}

// --------------------------------------------------- threaded parity ----

class SpmmParity : public ::testing::TestWithParam<int> {};

// Every kParallel registry format × scalar/simd × k ∈ {1,2,4,8}:
// run_multi bitwise-equals k independent spmv_add runs.
TEST_P(SpmmParity, RunMultiMatchesIndependentSpmvBitwise) {
  const int threads = GetParam();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(90, 84, 3, 0.3, 0.8, 2));
  const std::size_t rows = 90;

  int parallel_formats = 0;
  for_each_format<double>([&](auto tag) {
    using F = typename decltype(tag)::type;
    using Ops = FormatOps<F>;
    if constexpr (Ops::kParallel) {
      ++parallel_formats;
      for (const Candidate& c : parity_candidates(Ops::kKind)) {
        const F m = Ops::convert(a, c);
        const ThreadedSpmv<F> driver(m, threads);
        for (int k : kRhsCounts) {
          const auto xs = make_rhs<double>(84, k, 7);
          for (Impl impl : {Impl::kScalar, Impl::kSimd}) {
            // k>1 kernels accumulate in scalar order for every vector;
            // k == 1 in the requested impl's order.
            const Impl ref_impl = k > 1 ? Impl::kScalar : impl;
            std::vector<aligned_vector<double>> refs;
            for (int j = 0; j < k; ++j) {
              aligned_vector<double> r(rows, 0.0);
              spmv(m, xs[static_cast<std::size_t>(j)].data(), r.data(),
                   ref_impl);
              refs.push_back(std::move(r));
            }
            const auto X = pack(xs);
            aligned_vector<double> Y(rows * static_cast<std::size_t>(k),
                                     -1.0);
            driver.run_multi(X.data(), Y.data(), k, impl);
            for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j)
              for (std::size_t i = 0; i < rows; ++i)
                EXPECT_EQ(at(Y, static_cast<std::size_t>(k), i, j),
                          refs[j][i])
                    << c.id() << " impl=" << impl_name(impl) << " k=" << k
                    << " threads=" << threads << " vec " << j << " row "
                    << i;
          }
        }
      }
    }
  });
  EXPECT_EQ(parallel_formats, 5);
}

// The decomposed formats on long, short and absent remainder rows over
// many remainder chunks (tests/test_helpers.hpp chunk_edge_rows), so task
// ranges cut chunks: row-major k ∈ {1, 2, 4} bitwise-equals k spmv runs.
TEST_P(SpmmParity, DecRemainderChunksRowMajorBitwise) {
  const int threads = GetParam();
  const Csr<double> a =
      bspmv::testing::raw_csr(1553, 1600, bspmv::testing::chunk_edge_rows());
  const std::size_t rows = 1553;
  auto check = [&](const auto& m, const std::string& what) {
    using F = std::decay_t<decltype(m)>;
    const ThreadedSpmv<F> driver(m, threads);
    for (int k : {1, 2, 4}) {
      const auto xs = make_rhs<double>(1600, k, 11);
      const auto X = pack(xs);
      for (Impl impl : {Impl::kScalar, Impl::kSimd}) {
        const Impl ref_impl = k > 1 ? Impl::kScalar : impl;
        aligned_vector<double> Y(rows * static_cast<std::size_t>(k), -1.0);
        driver.run_multi(X.data(), Y.data(), k, impl);
        for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
          aligned_vector<double> ref(rows, 0.0);
          spmv(m, xs[j].data(), ref.data(), ref_impl);
          for (std::size_t i = 0; i < rows; ++i)
            ASSERT_EQ(at(Y, static_cast<std::size_t>(k), i, j), ref[i])
                << what << " impl=" << impl_name(impl) << " k=" << k
                << " threads=" << threads << " vec " << j << " row " << i;
        }
      }
    }
  };
  for (BlockShape s : {BlockShape{3, 1}, BlockShape{8, 1}, BlockShape{2, 2},
                       BlockShape{1, 8}})
    check(BcsrDec<double>::from_csr(a, s), "bcsr_dec " + s.to_string());
  for (int b : {2, 5, 8})
    check(BcsdDec<double>::from_csr(a, b), "bcsd_dec b=" + std::to_string(b));
}

INSTANTIATE_TEST_SUITE_P(Threads, SpmmParity, ::testing::Values(1, 2, 4, 7));

// ------------------------------------------------ generic front-end ----

// spmm() over EVERY registry format (including UBCSR, which takes the
// single-vector fallback): numerically equal to k independent spmv runs,
// with blocks of 2 and of 8 rows (4 and 7 for BCSD).
TEST(SpmmAllFormats, GenericFrontEndMatchesSpmv) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(60, 54, 2, 0.4, 0.85, 11));
  const std::size_t rows = 60;

  for_each_format<double>([&](auto tag) {
    using F = typename decltype(tag)::type;
    using Ops = FormatOps<F>;
    for (const auto& [shape, b] : {std::pair{BlockShape{2, 2}, 4},
                                   std::pair{BlockShape{8, 1}, 7}}) {
      Candidate c;
      c.kind = Ops::kKind;
      c.shape = shape;
      c.b = b;
      const F m = Ops::convert(a, c);
      for (int k : kRhsCounts) {
        const auto xs = make_rhs<double>(54, k, 23);
        const auto X = pack(xs);
        aligned_vector<double> Y(rows * static_cast<std::size_t>(k), -1.0);
        spmm(m, X.data(), Y.data(), k);
        for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
          aligned_vector<double> ref(rows, 0.0);
          spmv(m, xs[j].data(), ref.data());
          aligned_vector<double> got(rows);
          for (std::size_t i = 0; i < rows; ++i)
            got[i] = at(Y, static_cast<std::size_t>(k), i, j);
          expect_vectors_near(got.data(), ref.data(), rows,
                              c.id() + " k=" + std::to_string(k) + " vec " +
                                  std::to_string(j));
        }
      }
    }
  });
}

TEST(SpmmAllFormats, SpmmAddAccumulatesOntoExistingY) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(30, 30, 2, 0.5, 0.8, 3));
  const int k = 3;
  const auto xs = make_rhs<double>(30, k, 5);
  const auto X = pack(xs);
  aligned_vector<double> y0(30 * k, 2.5), y1(30 * k, 0.0);
  spmm_add(a, X.data(), y0.data(), k);
  spmm(a, X.data(), y1.data(), k);
  for (std::size_t i = 0; i < y0.size(); ++i)
    EXPECT_DOUBLE_EQ(y0[i], y1[i] + 2.5) << "slot " << i;
}

// ----------------------------------------------------------- engine ----

TEST(SpmmEngine, RunMultiMatchesRunPerVector) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(72, 72, 3, 0.35, 0.9, 17));
  const Candidate c{FormatKind::kBcsr, BlockShape{2, 4}, 0, Impl::kSimd};
  for (int threads : {0, 2}) {
    const auto engine = SpmvEngine<double>::prepare(a, c, threads);
    for (int k : kRhsCounts) {
      const auto xs = make_rhs<double>(72, k, 29);
      const auto X = pack(xs);
      aligned_vector<double> Y(72 * static_cast<std::size_t>(k), -1.0);
      engine.run_multi(X.data(), Y.data(), k);
      for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
        aligned_vector<double> ref(72, 0.0);
        engine.run(xs[j].data(), ref.data());
        for (std::size_t i = 0; i < 72; ++i) {
          const double got = at(Y, static_cast<std::size_t>(k), i, j);
          EXPECT_NEAR(got, ref[i], 1e-12)
              << "threads=" << threads << " k=" << k << " vec " << j
              << " row " << i;
        }
      }
    }
  }
}

TEST(SpmmEngine, MeasureMultiRunsUnderGuards) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(40, 40, 2, 0.4, 0.85, 31));
  const Candidate c{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar};
  const auto engine = SpmvEngine<double>::prepare(a, c, 0);
  MeasureOptions opt;
  opt.iterations = 2;
  opt.reps = 1;
  opt.check_numerics = true;
  const double t = engine.measure_multi(4, opt).min;
  EXPECT_GT(t, 0.0);
}

// ------------------------------------------------------------ smoke ----
// Tiny fixed matrix, scalar+simd, single+multi threaded: the
// `spmm_smoke` ctest that the sanitizer CI job runs on every push.

TEST(SpmmSmoke, TinyMatrixRowMajor) {
  Coo<double> coo(5, 6);
  coo.add(0, 0, 1.0);
  coo.add(0, 5, 2.0);
  coo.add(1, 2, 3.0);
  coo.add(2, 1, -1.0);
  coo.add(2, 4, 0.5);
  coo.add(4, 3, 4.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const int k = 3;
  const auto xs = make_rhs<double>(6, k, 41);
  for (Impl impl : {Impl::kScalar, Impl::kSimd}) {
    const auto X = pack(xs);
    aligned_vector<double> Y(5 * k, -1.0);
    spmm(a, X.data(), Y.data(), k, impl);
    aligned_vector<double> Yt(5 * k, -1.0);
    ThreadedSpmv<Csr<double>>(a, 2).run_multi(X.data(), Yt.data(), k, impl);
    for (std::size_t j = 0; j < k; ++j) {
      aligned_vector<double> ref(5, 0.0);
      spmv(a, xs[j].data(), ref.data());
      for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_NEAR(at(Y, k, i, j), ref[i], 1e-14) << impl_name(impl);
        EXPECT_NEAR(at(Yt, k, i, j), ref[i], 1e-14)
            << impl_name(impl) << " threaded";
      }
    }
  }
}

}  // namespace
}  // namespace bspmv
