// SpmvEngine tests: prepare-once/run-many semantics, thread-count plans,
// borrow lifetime, fault-tolerant prepare audit trail, and the §V-A
// non-parallel rejection.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/core/engine.hpp"
#include "src/formats/conversion_guard.hpp"
#include "src/kernels/spmv.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::expect_vectors_near;
using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;
using bspmv::testing::random_x;

Candidate bcsr_candidate(int r, int c, Impl impl = Impl::kScalar) {
  return Candidate{FormatKind::kBcsr, BlockShape{r, c}, 0, impl};
}

TEST(SpmvEngine, PlainPlanMatchesSerialKernel) {
  const Csr<double> a =
      Csr<double>::from_coo(random_blocky_coo<double>(66, 60, 2, 0.3, 0.8, 31));
  const auto x = random_x<double>(60, 32);
  aligned_vector<double> yref(66, 0.0), y(66, -1.0);
  spmv(a, x.data(), yref.data());

  for (const Candidate& c :
       {Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kSimd},
        bcsr_candidate(2, 2, Impl::kSimd),
        Candidate{FormatKind::kVbl, BlockShape{1, 1}, 0, Impl::kScalar}}) {
    const auto engine = SpmvEngine<double>::prepare(a, c);
    EXPECT_EQ(engine.threads(), 0);
    y.assign(66, -1.0);
    engine.run(x.data(), y.data());
    expect_vectors_near(y.data(), yref.data(), 66, "engine " + c.id());
  }
}

TEST(SpmvEngine, ThreadedPlanMatchesSerialBitwise) {
  const Csr<double> a =
      Csr<double>::from_coo(random_blocky_coo<double>(80, 75, 3, 0.3, 0.8, 33));
  const auto x = random_x<double>(75, 34);
  const Candidate c = bcsr_candidate(3, 1, Impl::kSimd);

  aligned_vector<double> yref(80, 0.0);
  SpmvEngine<double>::prepare(a, c).run(x.data(), yref.data());

  auto engine = SpmvEngine<double>::prepare(a, c, 3);
  aligned_vector<double> y(80, -1.0);
  engine.run(x.data(), y.data());
  for (std::size_t i = 0; i < 80; ++i) EXPECT_EQ(y[i], yref[i]) << "row " << i;
}

TEST(SpmvEngine, SetThreadsReplansOverTheSameFormat) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(50, 50, 0.1, 35));
  const auto x = random_x<double>(50, 36);
  aligned_vector<double> yref(50, 0.0);
  spmv(a, x.data(), yref.data());

  auto engine = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar});
  for (int t : {0, 1, 4, 2, 0}) {
    engine.set_threads(t);
    EXPECT_EQ(engine.threads(), t);
    aligned_vector<double> y(50, -1.0);
    engine.run(x.data(), y.data());
    expect_vectors_near(y.data(), yref.data(), 50,
                        "threads=" + std::to_string(t));
  }
}

TEST(SpmvEngine, NonParallelFormatRejectsThreadedPlan) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(20, 20, 0.3, 37));
  const Candidate vbl{FormatKind::kVbl, BlockShape{1, 1}, 0, Impl::kScalar};
  EXPECT_THROW(SpmvEngine<double>::prepare(a, vbl, 2), invalid_argument_error);
  // ...and flipping an existing plain engine to threaded fails the same way.
  auto engine = SpmvEngine<double>::prepare(a, vbl);
  EXPECT_THROW(engine.set_threads(2), invalid_argument_error);
}

TEST(SpmvEngine, BorrowSharesTheCallersFormat) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(40, 44, 0.1, 39));
  const AnyFormat<double> f =
      AnyFormat<double>::convert(a, bcsr_candidate(2, 2));
  const auto engine = SpmvEngine<double>::borrow(f);
  EXPECT_EQ(&engine.format(), &f);
  EXPECT_EQ(engine.prepared(), nullptr);

  const auto x = random_x<double>(44, 40);
  aligned_vector<double> yref(40, 0.0), y(40, -1.0);
  f.run(x.data(), yref.data());
  engine.run(x.data(), y.data());
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(y[i], yref[i]);
}

TEST(SpmvEngine, RankedPrepareKeepsTheAuditTrail) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(30, 30, 0.2, 41));
  // Starve blocked conversions (fill cap just below 1) so the BCSR
  // candidate is skipped and the engine lands on the CSR one.
  ConversionLimits tight;
  tight.max_fill_ratio = 1.0 - 1e-9;
  ConversionGuard::Scope scope(tight);
  const Candidate csr{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar};
  const std::vector<Candidate> ranked = {bcsr_candidate(4, 4), csr};
  const auto engine = SpmvEngine<double>::prepare(a, ranked, 2);
  ASSERT_NE(engine.prepared(), nullptr);
  EXPECT_FALSE(engine.prepared()->fallback);
  ASSERT_EQ(engine.prepared()->failures.size(), 1u);
  EXPECT_EQ(engine.prepared()->failures[0].candidate.id(),
            bcsr_candidate(4, 4).id());
  EXPECT_EQ(engine.format().candidate().id(), csr.id());

  const auto x = random_x<double>(30, 42);
  aligned_vector<double> yref(30, 0.0), y(30, -1.0);
  spmv(a, x.data(), yref.data());
  engine.run(x.data(), y.data());
  expect_vectors_near(y.data(), yref.data(), 30, "ranked prepare");
}

TEST(SpmvEngine, SetThreadsRollsBackWhenReplanFails) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(36, 36, 0.2, 51));
  const Candidate vbl{FormatKind::kVbl, BlockShape{1, 1}, 0, Impl::kScalar};
  auto engine = SpmvEngine<double>::prepare(a, vbl);
  const auto x = random_x<double>(36, 52);
  aligned_vector<double> yref(36, 0.0);
  spmv(a, x.data(), yref.data());

  // The failed replan must not poison the engine: threads() stays 0 and
  // the plain plan keeps running correctly (strong guarantee).
  EXPECT_THROW(engine.set_threads(2), invalid_argument_error);
  EXPECT_EQ(engine.threads(), 0);
  aligned_vector<double> y(36, -1.0);
  engine.run(x.data(), y.data());
  expect_vectors_near(y.data(), yref.data(), 36, "after failed replan");

  // Repeated failures and an explicit no-op 0 must behave the same.
  EXPECT_THROW(engine.set_threads(7), invalid_argument_error);
  engine.set_threads(0);
  EXPECT_EQ(engine.threads(), 0);
}

TEST(SpmvEngine, CsrFallbackEngineReplansAcrossThreadCounts) {
  const Coo<double> coo = random_coo<double>(48, 48, 0.15, 53);
  const auto a = Csr<double>::from_coo(coo);
  // Starve every blocked candidate so prepare degrades to scalar CSR.
  ConversionLimits tight;
  tight.max_fill_ratio = 1.0 - 1e-9;
  ConversionGuard::Scope scope(tight);
  auto engine = SpmvEngine<double>::prepare(
      a, std::vector<Candidate>{bcsr_candidate(4, 4), bcsr_candidate(2, 2)});
  ASSERT_NE(engine.prepared(), nullptr);
  ASSERT_TRUE(engine.prepared()->fallback);

  const auto x = random_x<double>(48, 54);
  aligned_vector<double> yref(48, 0.0);
  spmv(a, x.data(), yref.data());
  // The fallback format is CSR, which is parallelisable — replanning the
  // degraded engine across thread counts (0 included) must keep working.
  for (int t : {2, 0, 3, 1, 0}) {
    engine.set_threads(t);
    EXPECT_EQ(engine.threads(), t);
    aligned_vector<double> y(48, -1.0);
    engine.run(x.data(), y.data());
    expect_vectors_near(y.data(), yref.data(), 48,
                        "fallback threads=" + std::to_string(t));
  }
}

TEST(SpmvEngine, MeasureReturnsPositiveSeconds) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(32, 32, 0.2, 43));
  MeasureOptions opt;
  opt.iterations = 2;
  opt.reps = 1;
  opt.warmup = 0;
  const auto plain = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar});
  EXPECT_GT(plain.measure(opt).min, 0.0);
  const auto threaded = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar}, 2);
  EXPECT_GT(threaded.measure(opt).min, 0.0);
}

// ---------------------------------------------------------------------
// Resilience rails: deadline, cancellation, numeric guards
// ---------------------------------------------------------------------

TEST(SpmvEngine, MeasureThrowsTimeoutOnExpiredDeadline) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(64, 64, 0.1, 61));
  for (int threads : {0, 2}) {
    const auto engine = SpmvEngine<double>::prepare(
        a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar},
        threads);
    RunControl rc;
    rc.set_deadline(1e-6);  // expires before the first iteration edge
    MeasureOptions opt;
    opt.iterations = 1000;
    opt.reps = 1000;
    opt.control = &rc;
    EXPECT_THROW((void)engine.measure(opt), timeout_error)
        << "threads=" << threads;
    EXPECT_EQ(rc.reason(), AbortReason::kDeadline);
  }
}

TEST(SpmvEngine, MeasureThrowsCancelledOnPreCancelledControl) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(32, 32, 0.2, 62));
  const auto engine = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar}, 2);
  RunControl rc;
  rc.request_cancel("test cancel");
  MeasureOptions opt;
  opt.iterations = 2;
  opt.reps = 1;
  opt.control = &rc;
  EXPECT_THROW((void)engine.measure(opt), cancelled_error);
}

TEST(SpmvEngine, MeasureWithNumericGuardPassesOnCleanMatrix) {
  const Csr<double> a =
      Csr<double>::from_coo(random_blocky_coo<double>(40, 40, 2, 0.3, 0.8, 63));
  for (int threads : {0, 2}) {
    const auto engine =
        SpmvEngine<double>::prepare(a, bcsr_candidate(2, 2), threads);
    MeasureOptions opt;
    opt.iterations = 2;
    opt.reps = 2;
    opt.warmup = 0;  // the guard must force its own reference run
    opt.check_numerics = true;
    EXPECT_GT(engine.measure(opt).min, 0.0) << "threads=" << threads;
  }
}

TEST(SpmvEngine, MeasureWithNumericGuardCatchesNaNMatrix) {
  // A NaN stored value propagates into y; the post-warmup scan must turn
  // that into numerical_error instead of a silently poisoned timing.
  Coo<double> coo(16, 16);
  for (index_t i = 0; i < 16; ++i) coo.add(i, i, 1.0);
  coo.add(3, 7, std::numeric_limits<double>::quiet_NaN());
  const auto a = Csr<double>::from_coo(coo);
  const auto engine = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar});
  MeasureOptions opt;
  opt.iterations = 1;
  opt.reps = 1;
  opt.check_numerics = true;
  EXPECT_THROW((void)engine.measure(opt), numerical_error);
}

TEST(SpmvEngine, GuardedRunChecksInputAndOutput) {
  const Csr<double> a =
      Csr<double>::from_coo(random_coo<double>(24, 24, 0.25, 64));
  const auto engine = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar});
  auto x = random_x<double>(24, 65);
  aligned_vector<double> y(24, 0.0);
  EXPECT_NO_THROW(engine.run(x.data(), y.data(), nullptr, true));

  x[11] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.run(x.data(), y.data(), nullptr, true),
               numerical_error);

  // And a cancelled control turns the guarded run into cancelled_error.
  x[11] = 0.5;
  RunControl rc;
  rc.request_cancel();
  EXPECT_THROW(engine.run(x.data(), y.data(), &rc, false), cancelled_error);
}

// ------------------------------------------------- executor backend ----

TEST(SpmvEngine, TaskBackendMatchesBulkBitwise) {
  const Csr<double> a =
      Csr<double>::from_coo(random_blocky_coo<double>(90, 84, 3, 0.3, 0.8,
                                                      71));
  const auto x = random_x<double>(84, 72);
  aligned_vector<double> yb(90, -1.0), yt(90, -2.0);

  const auto bulk =
      SpmvEngine<double>::prepare(a, bcsr_candidate(3, 1), 4,
                                  ExecBackend::kBulk);
  EXPECT_EQ(bulk.backend(), ExecBackend::kBulk);
  bulk.run(x.data(), yb.data());

  const auto tasks =
      SpmvEngine<double>::prepare(a, bcsr_candidate(3, 1), 4,
                                  ExecBackend::kTasks);
  EXPECT_EQ(tasks.backend(), ExecBackend::kTasks);
  tasks.run(x.data(), yt.data());
  for (std::size_t i = 0; i < 90; ++i) EXPECT_EQ(yt[i], yb[i]) << "row " << i;
}

TEST(SpmvEngine, SetBackendReplansOverTheSameFormat) {
  const Csr<double> a =
      Csr<double>::from_coo(random_blocky_coo<double>(70, 66, 2, 0.3, 0.8,
                                                      73));
  const auto x = random_x<double>(66, 74);
  aligned_vector<double> ref(70, 0.0), y(70, -1.0);

  auto engine = SpmvEngine<double>::prepare(a, bcsr_candidate(2, 2), 3);
  engine.run(x.data(), ref.data());
  engine.set_backend(ExecBackend::kTasks);
  EXPECT_EQ(engine.backend(), ExecBackend::kTasks);
  engine.run(x.data(), y.data());
  for (std::size_t i = 0; i < 70; ++i) EXPECT_EQ(y[i], ref[i]) << i;

  engine.set_backend(ExecBackend::kBulk);
  y.assign(70, -1.0);
  engine.run(x.data(), y.data());
  for (std::size_t i = 0; i < 70; ++i) EXPECT_EQ(y[i], ref[i]) << i;
}

TEST(SpmvEngine, WarmUpIsHarmlessOnEveryPlanKind) {
  const Csr<double> a =
      Csr<double>::from_coo(random_blocky_coo<double>(60, 55, 2, 0.3, 0.8,
                                                      81));
  auto x = random_x<double>(55, 82);
  const aligned_vector<double> x_before = x;
  aligned_vector<double> ref(60, 0.0), y(60, -1.0);
  spmv(a, x.data(), ref.data());

  for (ExecBackend backend : {ExecBackend::kBulk, ExecBackend::kTasks}) {
    auto engine = SpmvEngine<double>::prepare(a, bcsr_candidate(2, 2), 2,
                                              backend);
    engine.warm_up(x.data(), y.data());
    for (std::size_t j = 0; j < 55; ++j)
      ASSERT_EQ(x[j], x_before[j]) << backend_name(backend) << " x " << j;
    y.assign(60, -1.0);
    engine.run(x.data(), y.data());
    for (std::size_t i = 0; i < 60; ++i)
      ASSERT_EQ(y[i], ref[i]) << backend_name(backend) << " row " << i;
  }
}

}  // namespace
}  // namespace bspmv
