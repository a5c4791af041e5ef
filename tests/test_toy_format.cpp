// Acceptance test for the FormatOps registry contract: a brand-new
// storage format defined entirely in this test TU — a trivial row-sorted
// COO wrapper — plugs into the generic spmv()/spmv_add()/spmm() front-end
// AND the generic ThreadedSpmv driver through nothing but a FormatOps
// specialisation. No file in src/core or src/parallel is modified (or
// even mentions this format); that is the "adding a format is one trait
// specialisation" guarantee of docs/architecture.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

/// The toy format: COO triples sorted by row, with a row_ptr index so a
/// row range can be executed independently (which is all the parallel
/// protocol needs).
template <class V>
class ToyCoo {
 public:
  static ToyCoo from_csr(const Csr<V>& a) {
    ToyCoo t;
    t.rows_ = a.rows();
    t.cols_ = a.cols();
    t.row_ptr_.assign(static_cast<std::size_t>(a.rows()) + 1, 0);
    for (index_t i = 0; i < a.rows(); ++i) {
      t.row_ptr_[static_cast<std::size_t>(i) + 1] =
          t.row_ptr_[static_cast<std::size_t>(i)] + a.row_nnz(i);
      for (index_t k = a.row_ptr()[static_cast<std::size_t>(i)];
           k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
        t.col_.push_back(a.col_ind()[static_cast<std::size_t>(k)]);
        t.val_.push_back(a.val()[static_cast<std::size_t>(k)]);
      }
    }
    return t;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::size_t working_set_bytes() const {
    return row_ptr_.size() * sizeof(index_t) + col_.size() * sizeof(index_t) +
           val_.size() * sizeof(V);
  }
  const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  const std::vector<index_t>& col() const { return col_; }
  const std::vector<V>& val() const { return val_; }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_;
  std::vector<index_t> col_;
  std::vector<V> val_;
};

}  // namespace

/// The one piece of glue a new format needs. Defined outside src/ to
/// prove the registry contract; kKind reuses kCsr because the toy format
/// never joins AnyFormat's registry (FormatKind is the *runtime* dispatch
/// key, only meaningful for formats in BuiltinFormats).
template <class V>
struct FormatOps<ToyCoo<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kCsr;
  static constexpr const char* kName = "toy_coo";
  static constexpr bool kParallel = true;

  static ToyCoo<V> convert(const Csr<V>& a, const Candidate&) {
    return ToyCoo<V>::from_csr(a);
  }
  static void validate(const ToyCoo<V>& m) {
    if (m.row_ptr().empty() ||
        m.row_ptr().back() != static_cast<index_t>(m.val().size()))
      throw validation_error("toy_coo: row_ptr/val mismatch");
  }
  static std::size_t working_set_bytes(const ToyCoo<V>& m) {
    return m.working_set_bytes();
  }
  static void spmv_add(const ToyCoo<V>& a, const V* x, V* y, Impl impl) {
    pass_run(a, 0, a.rows(), x, y, impl);
  }

  static std::vector<std::size_t> pass_weights(const ToyCoo<V>& a) {
    std::vector<std::size_t> w(static_cast<std::size_t>(a.rows()));
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = static_cast<std::size_t>(a.row_ptr()[i + 1] - a.row_ptr()[i]);
    return w;
  }
  static index_t pass_first_row(const ToyCoo<V>&, index_t g) {
    return g;
  }
  static void pass_run(const ToyCoo<V>& a, index_t g0, index_t g1,
                       const V* x, V* y, Impl) {
    for (index_t i = g0; i < g1; ++i)
      for (index_t k = a.row_ptr()[static_cast<std::size_t>(i)];
           k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
        y[i] += a.val()[static_cast<std::size_t>(k)] *
                x[a.col()[static_cast<std::size_t>(k)]];
  }
};

namespace {

using bspmv::testing::expect_vectors_near;
using bspmv::testing::random_coo;
using bspmv::testing::random_x;

TEST(ToyFormat, GenericSpmvPicksUpTheSpecialisation) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(63, 58, 0.09, 21));
  const ToyCoo<double> toy = ToyCoo<double>::from_csr(a);
  FormatOps<ToyCoo<double>>::validate(toy);
  EXPECT_EQ(toy.working_set_bytes(),
            FormatOps<ToyCoo<double>>::working_set_bytes(toy));

  const auto x = random_x<double>(58, 22);
  aligned_vector<double> yref(63, 0.0), ytoy(63, -1.0);
  spmv(a, x.data(), yref.data());
  spmv(toy, x.data(), ytoy.data());  // the generic front-end, no overload
  for (std::size_t i = 0; i < 63; ++i)
    EXPECT_DOUBLE_EQ(ytoy[i], yref[i]) << "row " << i;
}

TEST(ToyFormat, GenericThreadedDriverPicksUpTheSpecialisation) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(71, 64, 0.08, 23));
  const ToyCoo<double> toy = ToyCoo<double>::from_csr(a);
  const auto x = random_x<double>(64, 24);

  aligned_vector<double> ys(71, 0.0);
  spmv(toy, x.data(), ys.data());
  for (int threads : {1, 2, 4, 7}) {
    aligned_vector<double> yp(71, -1.0);
    // Instantiating ThreadedSpmv<ToyCoo> from the header is the whole
    // point: the driver template needs only the FormatOps protocol.
    ThreadedSpmv<ToyCoo<double>>(toy, threads).run(x.data(), yp.data());
    for (std::size_t i = 0; i < 71; ++i)
      EXPECT_EQ(yp[i], ys[i]) << threads << " threads, row " << i;
  }
}

TEST(ToyFormat, GenericSpmmFallsBackToSingleVectorRuns) {
  // The toy format has no multi-vector members, so spmm() takes the
  // k-single-vector fallback: per vector it must equal spmv exactly.
  constexpr index_t kRows = 41, kCols = 37;
  constexpr int k = 3;
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(kRows, kCols, 0.1, 27));
  const ToyCoo<double> toy = ToyCoo<double>::from_csr(a);
  std::vector<aligned_vector<double>> xs, ys;
  for (int j = 0; j < k; ++j) {
    xs.push_back(random_x<double>(kCols, 30 + static_cast<std::uint64_t>(j)));
    ys.emplace_back(kRows, 0.0);
    spmv(toy, xs.back().data(), ys.back().data());
  }
  auto at = [&](index_t i, int j) {
    return static_cast<std::size_t>(i) * k + static_cast<std::size_t>(j);
  };
  aligned_vector<double> X(static_cast<std::size_t>(kCols) * k);
  aligned_vector<double> Y(static_cast<std::size_t>(kRows) * k, -1.0);
  for (int j = 0; j < k; ++j)
    for (index_t i = 0; i < kCols; ++i)
      X[at(i, j)] =
          xs[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
  spmm(toy, X.data(), Y.data(), k);
  for (int j = 0; j < k; ++j)
    for (index_t i = 0; i < kRows; ++i)
      EXPECT_EQ(Y[at(i, j)],
                ys[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)])
          << "vector " << j << " row " << i;
}

TEST(ToyFormat, ThreadedRunMultiFallsBackToSingleVectorRuns) {
  // Without pass_run_multi the threaded driver runs one threaded run()
  // per vector through a deinterleave/reinterleave copy: per vector it
  // must equal spmv exactly.
  constexpr index_t kRows = 53, kCols = 47;
  constexpr int k = 3;
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(kRows, kCols, 0.1, 31));
  const ToyCoo<double> toy = ToyCoo<double>::from_csr(a);
  const auto X = random_x<double>(kCols * k, 32);
  for (int threads : {1, 3}) {
    aligned_vector<double> Y(static_cast<std::size_t>(kRows) * k, -1.0);
    ThreadedSpmv<ToyCoo<double>>(toy, threads).run_multi(X.data(), Y.data(),
                                                         k);
    for (int j = 0; j < k; ++j) {
      aligned_vector<double> xj(kCols), yj(kRows, 0.0);
      for (index_t i = 0; i < kCols; ++i)
        xj[static_cast<std::size_t>(i)] =
            X[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(j)];
      spmv(toy, xj.data(), yj.data());
      for (index_t i = 0; i < kRows; ++i)
        EXPECT_EQ(Y[static_cast<std::size_t>(i) * k +
                    static_cast<std::size_t>(j)],
                  yj[static_cast<std::size_t>(i)])
            << threads << " threads, vector " << j << " row " << i;
    }
  }
}

TEST(ToyFormat, ConvertFollowsTheCandidateProtocol) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(12, 12, 0.4, 25));
  const Candidate c{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar};
  const ToyCoo<double> toy = FormatOps<ToyCoo<double>>::convert(a, c);
  EXPECT_EQ(toy.rows(), 12);
  EXPECT_EQ(toy.cols(), 12);
}

}  // namespace
}  // namespace bspmv
