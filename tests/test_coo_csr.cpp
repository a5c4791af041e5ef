// Unit tests for the COO staging format and the CSR baseline.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/core/engine.hpp"
#include "src/formats/conversion_guard.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/validate.hpp"
#include "src/kernels/block_madd.hpp"
#include "src/kernels/csr_kernels.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "src/util/errors.hpp"
#include "tests/fault_injection.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::check_against_reference;
using bspmv::testing::chunk_edge_rows;
using bspmv::testing::expect_same_bits;
using bspmv::testing::expect_vectors_near;
using bspmv::testing::random_coo;
using bspmv::testing::random_x;
using bspmv::testing::raw_csr;

TEST(Coo, AddAndBoundsChecks) {
  Coo<double> coo(3, 4);
  coo.add(0, 0, 1.0);
  coo.add(2, 3, 2.0);
  EXPECT_EQ(coo.nnz(), 2u);
  EXPECT_THROW(coo.add(3, 0, 1.0), invalid_argument_error);
  EXPECT_THROW(coo.add(0, 4, 1.0), invalid_argument_error);
  EXPECT_THROW(coo.add(-1, 0, 1.0), invalid_argument_error);
}

TEST(Coo, SortAndCombineSumsDuplicates) {
  Coo<double> coo(2, 2);
  coo.add(1, 1, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 3.0);
  coo.add(0, 1, 4.0);
  coo.sort_and_combine();
  ASSERT_EQ(coo.nnz(), 3u);
  EXPECT_EQ(coo.entries()[0].row, 0);
  EXPECT_EQ(coo.entries()[0].col, 0);
  EXPECT_DOUBLE_EQ(coo.entries()[0].value, 2.0);
  EXPECT_DOUBLE_EQ(coo.entries()[1].value, 4.0);
  EXPECT_DOUBLE_EQ(coo.entries()[2].value, 4.0);  // 1 + 3
}

TEST(Coo, ReferenceSpmvMatchesHandComputation) {
  // [1 2; 0 3] * [10, 100] = [210, 300]
  Coo<double> coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 1, 3.0);
  const double x[] = {10.0, 100.0};
  double y[2];
  coo.spmv_reference(x, y);
  EXPECT_DOUBLE_EQ(y[0], 210.0);
  EXPECT_DOUBLE_EQ(y[1], 300.0);
}

TEST(Csr, FromCooBuildsCorrectArrays) {
  Coo<double> coo(3, 3);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 2.0);
  coo.add(1, 2, 3.0);
  const Csr<double> a = Csr<double>::from_coo(std::move(coo));
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 3u);
  const aligned_vector<index_t> want_rp = {0, 1, 3, 3};
  EXPECT_EQ(a.row_ptr(), want_rp);
  EXPECT_EQ(a.row_nnz(0), 1);
  EXPECT_EQ(a.row_nnz(1), 2);
  EXPECT_EQ(a.row_nnz(2), 0);
}

TEST(Csr, ConstructorValidatesArrays) {
  // row_ptr wrong length
  EXPECT_THROW(Csr<double>(2, 2, {0, 1}, {0}, {1.0}), invalid_argument_error);
  // row_ptr not ending at nnz
  EXPECT_THROW(Csr<double>(2, 2, {0, 1, 2}, {0}, {1.0}),
               invalid_argument_error);
  // decreasing row_ptr
  EXPECT_THROW(Csr<double>(2, 2, {0, 1, 0}, {0}, {1.0}),
               invalid_argument_error);
  // col out of range
  EXPECT_THROW(Csr<double>(2, 2, {0, 1, 1}, {5}, {1.0}),
               invalid_argument_error);
  // valid
  EXPECT_NO_THROW(Csr<double>(2, 2, {0, 1, 1}, {1}, {1.0}));
}

TEST(Csr, CooRoundTripPreservesEntries) {
  Coo<double> coo = random_coo<double>(37, 41, 0.08, 11);
  coo.sort_and_combine();
  const auto entries_before = coo.entries();
  const Csr<double> a = Csr<double>::from_coo(coo);
  Coo<double> back = a.to_coo();
  back.sort_and_combine();
  ASSERT_EQ(back.nnz(), entries_before.size());
  for (std::size_t k = 0; k < entries_before.size(); ++k) {
    EXPECT_EQ(back.entries()[k].row, entries_before[k].row);
    EXPECT_EQ(back.entries()[k].col, entries_before[k].col);
    EXPECT_DOUBLE_EQ(back.entries()[k].value, entries_before[k].value);
  }
}

TEST(Csr, WorkingSetAccountsAllArrays) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(10, 12, 0.3, 3));
  const std::size_t expect = a.nnz() * (8 + 4) + 11 * 4 + (10 + 12) * 8;
  EXPECT_EQ(a.working_set_bytes(), expect);
}

using Types = ::testing::Types<float, double>;
template <class V>
class CsrSpmvTyped : public ::testing::Test {};
TYPED_TEST_SUITE(CsrSpmvTyped, Types);

TYPED_TEST(CsrSpmvTyped, ScalarMatchesReference) {
  using V = TypeParam;
  const Coo<V> coo = random_coo<V>(83, 91, 0.07, 21);
  const Csr<V> a = Csr<V>::from_coo(coo);
  check_against_reference<V>(
      coo, [&](const V* x, V* y) { spmv(a, x, y, Impl::kScalar); },
      "csr scalar");
}

TYPED_TEST(CsrSpmvTyped, SimdMatchesReference) {
  using V = TypeParam;
  const Coo<V> coo = random_coo<V>(83, 91, 0.07, 22);
  const Csr<V> a = Csr<V>::from_coo(coo);
  check_against_reference<V>(
      coo, [&](const V* x, V* y) { spmv(a, x, y, Impl::kSimd); },
      "csr simd");
}

TYPED_TEST(CsrSpmvTyped, RangeKernelCoversSubsetOnly) {
  using V = TypeParam;
  const Coo<V> coo = random_coo<V>(40, 40, 0.2, 23);
  const Csr<V> a = Csr<V>::from_coo(coo);
  const auto x = bspmv::testing::random_x<V>(40, 5);
  aligned_vector<V> full(40, V{0}), part(40, V{0});
  csr_spmv_scalar(a, 0, 40, x.data(), full.data());
  csr_spmv_scalar(a, 10, 30, x.data(), part.data());
  for (index_t i = 0; i < 40; ++i) {
    if (i >= 10 && i < 30)
      EXPECT_EQ(part[static_cast<std::size_t>(i)],
                full[static_cast<std::size_t>(i)]);
    else
      EXPECT_EQ(part[static_cast<std::size_t>(i)], V{0});
  }
}

TYPED_TEST(CsrSpmvTyped, EmptyRowsAndEmptyMatrix) {
  using V = TypeParam;
  // Matrix with all-empty rows.
  Coo<V> coo(5, 5);
  const Csr<V> a = Csr<V>::from_coo(coo);
  const auto x = bspmv::testing::random_x<V>(5, 1);
  aligned_vector<V> y(5, V{7});
  spmv(a, x.data(), y.data());
  for (const V& v : y) EXPECT_EQ(v, V{0});
}

TEST(Csr, HandlesSingleElementMatrix) {
  Coo<double> coo(1, 1);
  coo.add(0, 0, 5.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const double x[] = {3.0};
  double y[1];
  spmv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 15.0);
}

// ------------------------------------------------- CSR chunk walk ----
//
// The CSR kernels walk 256-row chunks aligned to absolute rows, each
// flat or per row as detail::chunk_walk picks from the whole chunk
// (src/kernels/csr_kernels.cpp).

using RowCols = std::vector<std::vector<index_t>>;
constexpr index_t kWalkChunk = 256;

// The walk the kernels pick for the chunk of rows [base, base_end).
bool flat_chunk(const Csr<double>& a, index_t base, index_t base_end) {
  return detail::chunk_walk<true>(a.row_ptr().data(), base, base_end).flat;
}

// For one matrix, both impls: (a) scalar output bitwise equal to a plain
// per-row loop, SIMD output within expect_vectors_near of the COO
// reference; (b) the kernel run over ranges cut at rows 1, 255, 256, 257
// and n/2 bitwise equal to one whole run; (c) ThreadedSpmv at 1/2/3/4/7
// threads under the static and the stealing schedule bitwise equal to
// serial.
template <class V>
void expect_csr_walk_typed(index_t rows, index_t cols, const RowCols& rc,
                           const std::string& what) {
  const Csr<V> a = raw_csr<V>(rows, cols, rc);
  const auto x = random_x<V>(cols, 7);
  const auto n = static_cast<std::size_t>(rows);
  const index_t* rp = a.row_ptr().data();
  const index_t* col = a.col_ind().data();
  const V* val = a.val().data();
  aligned_vector<V> plain(n, V{0});
  for (index_t i = 0; i < rows; ++i) {
    V sum{0};
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) sum += val[k] * x.data()[col[k]];
    plain[static_cast<std::size_t>(i)] += sum;
  }
  aligned_vector<V> ref(n, V{0});
  a.to_coo().spmv_reference(x.data(), ref.data());
  std::vector<index_t> cuts = {0, 1, 255, 256, 257, rows / 2, rows};
  std::erase_if(cuts, [&](index_t c) { return c > rows; });
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  constexpr Impl kImpls[] = {Impl::kScalar, Impl::kSimd};
  aligned_vector<V> serial[2];
  for (int t = 0; t < 2; ++t) {
    const std::string ctx = what + " " + impl_name(kImpls[t]);
    serial[t].assign(n, V(99));  // poison: must be overwritten
    spmv(a, x.data(), serial[t].data(), kImpls[t]);
    if (kImpls[t] == Impl::kScalar)
      expect_same_bits(serial[t], plain, ctx + " vs per-row loop");
    else
      expect_vectors_near(serial[t].data(), ref.data(), rows, ctx);
    aligned_vector<V> pieces(n, V{0});
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
      FormatOps<Csr<V>>::pass_run(a, cuts[c], cuts[c + 1], x.data(),
                                  pieces.data(), kImpls[t]);
    expect_same_bits(pieces, serial[t], ctx + " cut ranges");
  }
  for (const int threads : {1, 2, 3, 4, 7}) {
    for (const ExecBackend b : {ExecBackend::kBulk, ExecBackend::kTasks}) {
      const ThreadedSpmv<Csr<V>> driver(a, threads, b);
      for (int t = 0; t < 2; ++t) {
        aligned_vector<V> y(n, V(-1));
        driver.run(x.data(), y.data(), kImpls[t]);
        expect_same_bits(y, serial[t],
                         what + " " + impl_name(kImpls[t]) + " " +
                             std::to_string(threads) + " threads " +
                             (b == ExecBackend::kBulk ? "bulk" : "tasks"));
      }
    }
  }
}

void expect_csr_walk(index_t rows, index_t cols, const RowCols& rc,
                     const std::string& what) {
  expect_csr_walk_typed<double>(rows, cols, rc, what + " double");
  expect_csr_walk_typed<float>(rows, cols, rc, what + " float");
}

TEST(CsrWalk, EmptyRowRuns) {
  // Rows 0-254 empty: all 256 rows of a flat chunk start at its entry 0,
  // and row 255 (offset 255, the largest) owns it. Rows 256-511 empty: a
  // chunk with no entry. Row 512, then 255 empty rows that start after
  // the chunk's last entry. Then runs of 1-9 empty rows between short
  // rows, to a partial last chunk.
  const index_t rows = 1100, cols = 97;
  RowCols rc(static_cast<std::size_t>(rows));
  rc[255] = {3, 0, 7, 3, 1};
  rc[512] = {5, 2, 9};
  for (index_t i = 768, run = 0; i < rows; ++run) {
    i += 1 + run % 9;  // the empty run
    for (index_t t = 0; i < rows && t <= run % 5; ++t)
      rc[static_cast<std::size_t>(i)].push_back((13 * i + 5 * t) % cols);
    ++i;
  }
  const Csr<double> a = raw_csr(rows, cols, rc);
  for (index_t base = 0; base < 1024; base += kWalkChunk)
    EXPECT_TRUE(flat_chunk(a, base, base + kWalkChunk)) << base;
  EXPECT_EQ(a.row_ptr()[512], 5);
  expect_csr_walk(rows, cols, rc, "empty runs");
}

TEST(CsrWalk, RowsLongerThanTheFlatBound) {
  // Chunk 0: rows of 1 and 2 entries in turn, a change of length at every
  // row, with row 100 topped up to 1656 entries: 2039 in all, the most a
  // flat chunk holds. Chunk 1: rows of 20 and 21 entries in turn, per
  // row. Chunk 2: rows of 40 entries, per row. Then a partial chunk.
  const index_t rows = 3 * kWalkChunk + 100, cols = 2048;
  RowCols rc(static_cast<std::size_t>(rows));
  auto fill = [&](index_t i, index_t len) {
    for (index_t t = 0; t < len; ++t)
      rc[static_cast<std::size_t>(i)].push_back((31 * i + 7 * t) % cols);
  };
  for (index_t i = 0; i < kWalkChunk; ++i) fill(i, i == 100 ? 1656 : 1 + i % 2);
  for (index_t i = kWalkChunk; i < 2 * kWalkChunk; ++i) fill(i, 20 + i % 2);
  for (index_t i = 2 * kWalkChunk; i < 3 * kWalkChunk; ++i) fill(i, 40);
  for (index_t i = 3 * kWalkChunk; i < rows; ++i) fill(i, 1 + i % 3);
  const Csr<double> a = raw_csr(rows, cols, rc);
  EXPECT_EQ(a.row_ptr()[kWalkChunk],
            detail::kFlatMaxPerLengthChange * (kWalkChunk - 1) - 1);
  EXPECT_TRUE(flat_chunk(a, 0, kWalkChunk));
  EXPECT_FALSE(flat_chunk(a, kWalkChunk, 2 * kWalkChunk));
  EXPECT_FALSE(flat_chunk(a, 2 * kWalkChunk, 3 * kWalkChunk));
  EXPECT_TRUE(flat_chunk(a, 3 * kWalkChunk, rows));
  expect_csr_walk(rows, cols, rc, "long rows");
}

TEST(CsrWalk, PartialChunksAndTinyMatrices) {
  expect_csr_walk(0, 0, {}, "0x0");
  expect_csr_walk(0, 5, {}, "0x5");
  expect_csr_walk(1, 9, {{8, 0, 8, 3}}, "one row");
  // Fewer rows than a chunk: unsorted and duplicate columns, empty rows.
  expect_csr_walk(11, 13,
                  {{5, 1, 0, 12, 1},
                   {},
                   {3, 2, 2, 3, 0, 1},
                   {12, 11, 10, 9, 8, 7, 6, 5},
                   {0},
                   {},
                   {},
                   {9, 3, 9, 3, 9, 3},
                   {1, 2},
                   {0, 12, 6},
                   {10, 2, 2, 11}},
                  "11 rows");
  const index_t rows = 2 * kWalkChunk + 37;
  RowCols rc(static_cast<std::size_t>(rows));
  for (index_t i = 0; i < rows; ++i)
    for (index_t t = 0; t < i % 6; ++t)
      rc[static_cast<std::size_t>(i)].push_back((17 * i + 3 * t) % 400);
  expect_csr_walk(rows, 400, rc, "partial last chunk");
}

TEST(CsrWalk, TaskRangesCutChunks) {
  // Each chunk: 128 rows of 4-7 entries, a change of length at every row,
  // then 128 rows of 40. The whole chunk takes the per-row walk; its
  // first half alone would be flat, so the walk must come from the
  // whole chunk for a range cut at n/2 = 384 (or a thread's range) to
  // walk its rows as one whole run does.
  const index_t rows = 3 * kWalkChunk, cols = 1000;
  RowCols rc(static_cast<std::size_t>(rows));
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = i % kWalkChunk < 128 ? 4 + i % 4 : 40;
    for (index_t t = 0; t < len; ++t)
      rc[static_cast<std::size_t>(i)].push_back((101 * i + 37 * t) % cols);
  }
  const Csr<double> a = raw_csr(rows, cols, rc);
  EXPECT_FALSE(flat_chunk(a, kWalkChunk, 2 * kWalkChunk));
  EXPECT_TRUE(flat_chunk(a, kWalkChunk, kWalkChunk + 128));
  expect_csr_walk(rows, cols, rc, "half-flat chunks");
  expect_csr_walk(1553, 1600, chunk_edge_rows(), "chunk edges");
}

// The bitwise parity checks above compare bit patterns: an output that
// differs from its reference only in the sign of a zero fails them.
template <class V>
void check_same_bits_signed_zero() {
  static const aligned_vector<V> pos{V{1}, V{0}, V{2}};
  static const aligned_vector<V> neg{V{1}, -V{0}, V{2}};
  ASSERT_EQ(pos[1], neg[1]);  // == cannot tell them apart
  expect_same_bits(pos, pos, "same");
  EXPECT_FATAL_FAILURE(expect_same_bits(neg, pos, "neg"),
                       "row 1: got -0x0p+0");
  EXPECT_FATAL_FAILURE(expect_same_bits(pos, neg, "pos"), "want -0x0p+0");
}

TEST(SameBits, RejectsNegativeZeroForPositiveZero) {
  check_same_bits_signed_zero<double>();
  check_same_bits_signed_zero<float>();
}


// ------------------------------------------------------ shared storage ----

const Candidate kCsrSimd{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kSimd};

/// The Csr a format holds, or nullptr when the format is not CSR.
const Csr<double>* csr_of(const AnyFormat<double>& f) {
  return f.visit([](const auto& m) -> const Csr<double>* {
    if constexpr (std::is_same_v<std::decay_t<decltype(m)>, Csr<double>>)
      return &m;
    else
      return nullptr;
  });
}

void expect_shares(const Csr<double>& got, const Csr<double>& want,
                   const std::string& what) {
  EXPECT_EQ(got.row_ptr().data(), want.row_ptr().data()) << what;
  EXPECT_EQ(got.col_ind().data(), want.col_ind().data()) << what;
  EXPECT_EQ(got.val().data(), want.val().data()) << what;
}

TEST(CsrStorage, CopySharesItsArrays) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(50, 60, 0.1, 71));
  const Csr<double> b = a;
  expect_shares(b, a, "copy");
  Csr<double> c;
  c = b;
  expect_shares(c, a, "copy-assign");
  EXPECT_EQ(c.rows(), 50);
  EXPECT_EQ(c.cols(), 60);
  EXPECT_EQ(c.nnz(), a.nnz());
}

TEST(CsrStorage, CsrConversionAndPrepareShareTheInput) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(80, 80, 0.1, 72));
  const auto f = AnyFormat<double>::convert(a, kCsrSimd);
  ASSERT_NE(csr_of(f), nullptr);
  expect_shares(*csr_of(f), a, "convert");

  const auto engine =
      SpmvEngine<double>::prepare(a, std::vector<Candidate>{kCsrSimd}, 4);
  ASSERT_NE(csr_of(engine.format()), nullptr);
  EXPECT_EQ(csr_of(engine.format())->val().data(), a.val().data());

  // try_prepare's scalar-CSR fallback shares too: a fill cap just below 1
  // starves the only (blocked) candidate.
  ConversionLimits tight;
  tight.max_fill_ratio = 1.0 - 1e-9;
  ConversionGuard::Scope scope(tight);
  const Candidate bcsr{FormatKind::kBcsr, BlockShape{4, 4}, 0, Impl::kScalar};
  const auto fallback =
      SpmvEngine<double>::prepare(a, std::vector<Candidate>{bcsr}, 2);
  ASSERT_NE(fallback.prepared(), nullptr);
  EXPECT_TRUE(fallback.prepared()->fallback);
  ASSERT_NE(csr_of(fallback.format()), nullptr);
  expect_shares(*csr_of(fallback.format()), a, "fallback");
}

TEST(CsrStorage, FaultOnASharedInputLeavesTheEngineIntact) {
  Csr<double> a = Csr<double>::from_coo(random_coo<double>(300, 300, 0.05, 73));
  const auto x = random_x<double>(300, 74);
  aligned_vector<double> want(300, 0.0);
  spmv(a, x.data(), want.data(), Impl::kSimd);
  const auto engine =
      SpmvEngine<double>::prepare(a, std::vector<Candidate>{kCsrSimd}, 4);

  ASSERT_TRUE(bspmv::testing::inject_csr_fault(
      a, bspmv::testing::CsrFault::kColumnPastEnd, 17));
  EXPECT_THROW(validate(a), validation_error);
  EXPECT_NE(csr_of(engine.format())->col_ind().data(), a.col_ind().data());
  EXPECT_NO_THROW(engine.format().validate());

  aligned_vector<double> y(300, -1.0);
  engine.run(x.data(), y.data());
  expect_same_bits(y, want, "engine after the input's fault");
}

TEST(CsrStorage, SoleOwnerWritesInPlace) {
  Csr<double> a = Csr<double>::from_coo(random_coo<double>(40, 40, 0.2, 75));
  const index_t* before = a.col_ind().data();
  { const Csr<double> gone = a; }  // a shared, then sole owner again
  EXPECT_EQ(a.mutable_col_ind().data(), before);
  a.mutable_col_ind()[0] = 0;
  EXPECT_EQ(a.col_ind()[0], 0);
  EXPECT_EQ(a.col_ind().data(), before);
}

TEST(CsrStorage, DefaultAndMovedFromReadAsEmpty) {
  Csr<double> d;
  EXPECT_EQ(d.rows(), 0);
  EXPECT_EQ(d.cols(), 0);
  EXPECT_EQ(d.nnz(), 0u);
  EXPECT_TRUE(d.row_ptr().empty());
  EXPECT_TRUE(d.col_ind().empty());
  EXPECT_TRUE(d.val().empty());
  EXPECT_EQ(d.working_set_bytes(), 0u);
  EXPECT_EQ(d.to_coo().nnz(), 0u);
  EXPECT_TRUE(d.mutable_col_ind().empty());
  EXPECT_EQ(Csr<double>(d).nnz(), 0u);

  Csr<double> a = Csr<double>::from_coo(random_coo<double>(20, 30, 0.3, 76));
  const double* val = a.val().data();
  const std::size_t nnz = a.nnz();
  const Csr<double> b = std::move(a);
  EXPECT_EQ(b.val().data(), val);
  EXPECT_EQ(b.nnz(), nnz);
  // As with the moved-from arrays themselves: the shape stays, the
  // arrays read as empty.
  EXPECT_EQ(a.rows(), 20);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_TRUE(a.row_ptr().empty());
  EXPECT_TRUE(a.mutable_col_ind().empty());
}

TEST(CsrStorage, ConcurrentEnginesShareOneCsr) {
  // Four threads prepare, run and drop CSR engines over one shared Csr
  // while a fifth runs a ThreadedSpmv on it: the block's reference count
  // is the only shared write.
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(1200, 1200, 0.01, 77));
  const auto x = random_x<double>(1200, 78);
  aligned_vector<double> want(1200, 0.0);
  spmv(a, x.data(), want.data(), Impl::kSimd);

  constexpr int kRounds = 12;
  std::vector<int> mismatches(5, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      aligned_vector<double> y(1200);
      for (int r = 0; r < kRounds; ++r) {
        const auto engine = SpmvEngine<double>::prepare(
            a, std::vector<Candidate>{kCsrSimd}, 1 + (t + r) % 4);
        engine.run(x.data(), y.data());
        if (y != want) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  threads.emplace_back([&] {
    const ThreadedSpmv<Csr<double>> plan(a, 4);
    aligned_vector<double> y(1200);
    for (int r = 0; r < 4 * kRounds; ++r) {
      plan.run(x.data(), y.data(), Impl::kSimd);
      if (y != want) ++mismatches[4];
    }
  });
  for (auto& th : threads) th.join();
  for (int t = 0; t < 5; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace bspmv
