// Fault-injection tests: systematically corrupt every external artifact
// the pipeline consumes (Matrix Market streams, profile/cache JSON,
// in-memory CSR structures) and starve conversions of resources,
// asserting the library's fault contract — a typed bspmv::error or a
// numerically correct CSR fallback, never a crash, foreign exception,
// or silently wrong answer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "src/core/engine.hpp"
#include "src/core/selector.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/conversion_guard.hpp"
#include "src/formats/validate.hpp"
#include "src/io/matrix_market.hpp"
#include "src/profile/machine_profile.hpp"
#include "src/util/errors.hpp"
#include "tests/fault_injection.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::check_against_reference;
using bspmv::testing::CsrFault;
using bspmv::testing::csr_fault_name;
using bspmv::testing::expect_typed_errors_only;
using bspmv::testing::inject_csr_fault;
using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;
using bspmv::testing::raw_csr;
using bspmv::testing::synthetic_profile;
using bspmv::testing::text_corruptions;

std::string serialize_mm(const Coo<double>& coo) {
  std::ostringstream os;
  write_matrix_market(coo, os);
  return os.str();
}

// ---------------------------------------------------------------------
// Matrix Market stream corruption
// ---------------------------------------------------------------------

TEST(FaultInjection, CorruptedMatrixMarketGeneral) {
  const Coo<double> coo = random_coo<double>(17, 13, 0.2, 42);
  const auto corpus = text_corruptions(serialize_mm(coo));
  ASSERT_GT(corpus.size(), 30u);
  expect_typed_errors_only(
      corpus,
      [](const std::string& text) {
        std::istringstream is(text);
        const Coo<double> parsed = parse_matrix_market<double>(is);
        // A benign corruption must still yield a structurally sound
        // matrix all the way through CSR conversion.
        const auto a = Csr<double>::from_coo(parsed);
        validate(a);
      },
      "general mm");
}

TEST(FaultInjection, CorruptedMatrixMarketSkewSymmetric) {
  // Hand-written skew-symmetric document (writer emits general only).
  const std::string base =
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "4 4 3\n"
      "2 1 1.5\n"
      "3 1 -2.25\n"
      "4 2 0.75\n";
  expect_typed_errors_only(
      text_corruptions(base),
      [](const std::string& text) {
        std::istringstream is(text);
        const Coo<double> parsed = parse_matrix_market<double>(is);
        validate(parsed);
      },
      "skew-symmetric mm");
}

TEST(FaultInjection, SkewSymmetricDiagonalIsTyped) {
  const std::string doc =
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "3 3 2\n"
      "2 1 1.0\n"
      "2 2 5.0\n";
  std::istringstream is(doc);
  EXPECT_THROW(parse_matrix_market<double>(is), parse_error);
}

// ---------------------------------------------------------------------
// In-memory CSR corruption: validate() and try_prepare() must both
// reject garbage with validation_error — there is no correct executor
// for a broken matrix, so falling back would hide the corruption.
// ---------------------------------------------------------------------

TEST(FaultInjection, CorruptedCsrIsRejectedByValidate) {
  for (CsrFault fault : {CsrFault::kColumnPastEnd, CsrFault::kColumnNegative,
                         CsrFault::kColumnHuge}) {
    for (std::size_t pos : {std::size_t{0}, std::size_t{7}, std::size_t{1u << 20}}) {
      auto a = Csr<double>::from_coo(random_coo<double>(24, 24, 0.15, 5));
      ASSERT_TRUE(inject_csr_fault(a, fault, pos)) << csr_fault_name(fault);
      EXPECT_THROW(validate(a), validation_error)
          << csr_fault_name(fault) << " at " << pos;
    }
  }
}

TEST(FaultInjection, CorruptedCsrIsRejectedByTryPrepare) {
  auto a = Csr<double>::from_coo(random_coo<double>(16, 16, 0.2, 9));
  ASSERT_TRUE(inject_csr_fault(a, CsrFault::kColumnPastEnd, 3));
  EXPECT_THROW(try_prepare(a, model_candidates(true)), validation_error);
}

// ---------------------------------------------------------------------
// Resource starvation: tight ConversionGuard limits
// ---------------------------------------------------------------------

TEST(FaultInjection, PaddingBlowupRaisesResourceLimitError) {
  // A diagonal matrix blocked 8x8 stores 64 values per nonzero — cap the
  // fill ratio below that and the conversion must refuse, not allocate.
  Coo<double> coo(256, 256);
  for (index_t i = 0; i < 256; ++i) coo.add(i, i, 1.0 + i);
  const auto a = Csr<double>::from_coo(coo);

  ConversionLimits tight;
  tight.max_fill_ratio = 4.0;
  ConversionGuard::Scope scope(tight);
  EXPECT_THROW(Bcsr<double>::from_csr(a, BlockShape{8, 8}),
               resource_limit_error);
}

TEST(FaultInjection, ByteBudgetRaisesResourceLimitError) {
  const auto a =
      Csr<double>::from_coo(random_blocky_coo<double>(64, 64, 4, 0.4, 0.9, 3));
  ConversionLimits tiny;
  tiny.max_bytes = 128;  // no real matrix fits
  ConversionGuard::Scope scope(tiny);
  EXPECT_THROW(Bcsr<double>::from_csr(a, BlockShape{4, 4}),
               resource_limit_error);
}

TEST(FaultInjection, TryPrepareDegradesToCorrectCsr) {
  const Coo<double> coo = random_blocky_coo<double>(96, 96, 4, 0.3, 0.8, 11);
  const auto a = Csr<double>::from_coo(coo);

  // Starve every blocked conversion; only the 1x1 CSR fallback can fit.
  ConversionLimits tight;
  tight.max_fill_ratio = 1.0 - 1e-9;
  ConversionGuard::Scope scope(tight);

  // Blocked candidates only, so every requested candidate fails.
  std::vector<Candidate> blocked;
  for (const Candidate& c : model_candidates(true))
    if (c.kind != FormatKind::kCsr) blocked.push_back(c);
  ASSERT_FALSE(blocked.empty());

  const PreparedExecutor<double> prep = try_prepare(a, blocked);
  EXPECT_TRUE(prep.fallback);
  EXPECT_EQ(prep.failures.size(), blocked.size());
  for (const PrepareFailure& f : prep.failures)
    EXPECT_FALSE(f.reason.empty()) << f.candidate.id();
  EXPECT_EQ(prep.format.candidate().kind, FormatKind::kCsr);

  check_against_reference<double>(
      coo, [&](const double* x, double* y) { prep.format.run(x, y); },
      "csr fallback");
}

TEST(FaultInjection, KeyCounterScratchIsGuarded) {
  // Three nonzeros in one row of 2^24 columns: every output array is a
  // few bytes, but the blocked conversions' key counter holds
  // 4·(cols/c + 1) or 4·(cols + b) bytes, 8–64 MiB. It is charged to the
  // guard before it is allocated, so a 1 MiB budget refuses them all.
  const index_t m = index_t{1} << 24;
  const Csr<double> a = raw_csr(1, m, {{0, m / 2, m - 1}});
  ConversionLimits tight;
  tight.max_bytes = std::size_t{1} << 20;
  ConversionGuard::Scope scope(tight);

  std::vector<Candidate> blocked(4);
  blocked[0].kind = FormatKind::kBcsr;
  blocked[1].kind = FormatKind::kBcsrDec;
  blocked[0].shape = blocked[1].shape = BlockShape{1, 8};
  blocked[2].kind = FormatKind::kBcsd;
  blocked[3].kind = FormatKind::kBcsdDec;
  blocked[2].b = blocked[3].b = 2;
  for (const Candidate& c : blocked)
    EXPECT_THROW(AnyFormat<double>::convert(a, c), resource_limit_error)
        << c.id();

  const PreparedExecutor<double> prep = try_prepare(a, blocked);
  EXPECT_TRUE(prep.fallback);
  EXPECT_EQ(prep.failures.size(), blocked.size());
  EXPECT_EQ(prep.format.candidate().kind, FormatKind::kCsr);
  check_against_reference<double>(
      a.to_coo(), [&](const double* x, double* y) { prep.format.run(x, y); },
      "csr fallback");
}

TEST(FaultInjection, TryPreparePicksFirstViableCandidate) {
  const Coo<double> coo = random_blocky_coo<double>(64, 64, 2, 0.5, 0.95, 21);
  const auto a = Csr<double>::from_coo(coo);
  const PreparedExecutor<double> prep = try_prepare(a, model_candidates(true));
  EXPECT_FALSE(prep.fallback);
  EXPECT_TRUE(prep.failures.empty());
  check_against_reference<double>(
      coo, [&](const double* x, double* y) { prep.format.run(x, y); },
      "first viable");
}

TEST(FaultInjection, SelectAndPrepareSurvivesStarvation) {
  const Coo<double> coo = random_blocky_coo<double>(80, 80, 3, 0.4, 0.85, 31);
  const auto a = Csr<double>::from_coo(coo);
  const MachineProfile profile = synthetic_profile();

  ConversionLimits tight;
  tight.max_fill_ratio = 1.0 - 1e-9;
  ConversionGuard::Scope scope(tight);

  for (ModelKind model :
       {ModelKind::kMem, ModelKind::kMemComp, ModelKind::kOverlap}) {
    const PreparedExecutor<double> prep = select_and_prepare(model, a, profile);
    // Whatever survived must be runnable and correct.
    EXPECT_NO_THROW(prep.format.validate()) << model_name(model);
    check_against_reference<double>(
        coo, [&](const double* x, double* y) { prep.format.run(x, y); },
        std::string("select_and_prepare/") + model_name(model));
  }
}

// ---------------------------------------------------------------------
// Profile-cache JSON corruption
// ---------------------------------------------------------------------

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  void write(const std::string& text) const {
    std::ofstream f(path_);
    f << text;
  }

 private:
  std::string path_;
};

TEST(FaultInjection, CorruptedProfileJsonNeverEscapesTaxonomy) {
  const MachineProfile profile = synthetic_profile();
  const std::string base = profile.to_json().dump(2);
  const TempFile file("fault_injection_profile.json");

  for (const std::string& variant : text_corruptions(base)) {
    file.write(variant);
    // load(): strict — success or a typed error.
    try {
      (void)MachineProfile::load(file.path());
    } catch (const error&) {
      // typed: contract holds
    } catch (const std::exception& e) {
      FAIL() << "MachineProfile::load escaped taxonomy: " << e.what()
             << "\n--- variant ---\n"
             << variant;
    }
    // try_load(): total — a profile or nullopt, never a throw.
    EXPECT_NO_THROW((void)MachineProfile::try_load(file.path()));
  }
}

TEST(FaultInjection, StaleProfileSchemaTriggersReprofile) {
  const MachineProfile profile = synthetic_profile();
  Json j = profile.to_json();
  j.as_object()["schema_version"] = MachineProfile::kSchemaVersion + 1;
  const TempFile file("fault_injection_stale_profile.json");
  file.write(j.dump(2));
  EXPECT_THROW((void)MachineProfile::from_json(j), validation_error);
  EXPECT_FALSE(MachineProfile::try_load(file.path()).has_value());
}

// ---------------------------------------------------------------------
// Post-conversion invariants: every candidate that converts at all must
// produce a structure validate() accepts and a numerically correct run.
// ---------------------------------------------------------------------

TEST(FaultInjection, EveryConvertedCandidateValidatesAndRuns) {
  const Coo<double> coo = random_blocky_coo<double>(60, 52, 4, 0.35, 0.8, 77);
  const auto a = Csr<double>::from_coo(coo);

  std::vector<Candidate> all = bench_candidates(true);
  for (const Candidate& c : extension_candidates(true)) all.push_back(c);

  int converted = 0;
  for (const Candidate& c : all) {
    std::string reason;
    auto f = try_convert(a, c, &reason);
    if (!f) continue;  // unsupported combination — typed skip, not a bug
    ++converted;
    EXPECT_NO_THROW(f->validate()) << c.id();
    check_against_reference<double>(
        coo, [&](const double* x, double* y) { f->run(x, y); }, c.id());
  }
  EXPECT_GT(converted, 50);
}

// ---------------------------------------------------------------------
// Execution faults: stalled workers, mid-run cancellation, poisoned
// vectors. StallCsr is a CSR wrapper whose first granule range wedges
// (cooperatively — it polls the ambient RunControl, like a kernel stuck
// on a slow NUMA page would eventually be released by process death)
// so the watchdog's aggregate-progress detection can be exercised
// through the real ThreadedSpmv + measure_guarded pipeline.
// ---------------------------------------------------------------------

}  // namespace

template <class V>
class StallCsr {
 public:
  explicit StallCsr(Csr<V> a) : a_(std::move(a)) {}
  const Csr<V>& inner() const { return a_; }
  index_t rows() const { return a_.rows(); }
  index_t cols() const { return a_.cols(); }

 private:
  Csr<V> a_;
};

template <class V>
struct FormatOps<StallCsr<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kCsr;  // never registered
  static constexpr const char* kName = "stall_csr";
  static constexpr bool kParallel = true;

  static std::vector<std::size_t> pass_weights(const StallCsr<V>& a) {
    return std::vector<std::size_t>(static_cast<std::size_t>(a.rows()), 1);
  }
  static index_t pass_first_row(const StallCsr<V>&, index_t g) {
    return g;
  }
  static void pass_run(const StallCsr<V>& a, index_t g0, index_t g1,
                       const V* x, V* y, Impl) {
    if (g0 == 0) {
      // The injected stall: wedge until the run is aborted. Polling the
      // ambient control keeps the test process killable; the watchdog
      // must fire from the OUTSIDE (zero aggregate heartbeats), since a
      // stalled worker by definition never reports in.
      RunControl* rc = RunControl::current();
      while (rc != nullptr && !rc->stop_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (rc != nullptr) return;  // aborted: y is indeterminate, fine
    }
    for (index_t i = g0; i < g1; ++i) {
      V acc{};
      for (index_t k = a.inner().row_ptr()[static_cast<std::size_t>(i)];
           k < a.inner().row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
        acc += a.inner().val()[static_cast<std::size_t>(k)] *
               x[a.inner().col_ind()[static_cast<std::size_t>(k)]];
      y[i] += acc;
    }
  }
};

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(FaultInjection, StalledWorkerIsAbortedByStallWatchdog) {
  const auto a =
      Csr<double>::from_coo(random_coo<double>(1024, 1024, 0.01, 71));
  const StallCsr<double> m(a);
  const ThreadedSpmv<StallCsr<double>> driver(m, 2);

  RunControl rc;
  rc.set_stall_timeout(0.05);
  MeasureOptions opt;
  opt.iterations = 1;
  opt.reps = 1;
  opt.warmup = 0;
  opt.control = &rc;

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)detail::measure_guarded<double>(
                   a.rows(), a.cols(), opt,
                   [&](const double* x, double* y) {
                     driver.run(x, y, Impl::kScalar, &rc);
                   }),
               timeout_error);
  EXPECT_EQ(rc.reason(), AbortReason::kStalled);
  EXPECT_LT(seconds_since(t0), 2.0);  // detection, not a hang
}

TEST(FaultInjection, StalledWorkerIsAbortedByDeadlineWithinTwiceTheBudget) {
  const auto a =
      Csr<double>::from_coo(random_coo<double>(1024, 1024, 0.01, 72));
  const StallCsr<double> m(a);
  const ThreadedSpmv<StallCsr<double>> driver(m, 2);

  const double deadline = 0.1;
  RunControl rc;
  rc.set_deadline(deadline);
  MeasureOptions opt;
  opt.iterations = 1;
  opt.reps = 1;
  opt.warmup = 0;
  opt.control = &rc;

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)detail::measure_guarded<double>(
                   a.rows(), a.cols(), opt,
                   [&](const double* x, double* y) {
                     driver.run(x, y, Impl::kScalar, &rc);
                   }),
               timeout_error);
  EXPECT_EQ(rc.reason(), AbortReason::kDeadline);
  EXPECT_LT(seconds_since(t0), 2 * deadline);
}

TEST(FaultInjection, MidRunCancellationUnwindsThreadedMeasure) {
  const auto a =
      Csr<double>::from_coo(random_coo<double>(256, 256, 0.05, 73));
  const auto engine = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar}, 2);

  RunControl rc;
  MeasureOptions opt;
  opt.iterations = 500;
  opt.reps = 100000;  // would run for minutes — cancellation must cut in
  opt.control = &rc;

  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rc.request_cancel("injected mid-run cancel");
  });
  EXPECT_THROW((void)engine.measure(opt), cancelled_error);
  canceller.join();
  EXPECT_EQ(rc.reason(), AbortReason::kCancelled);
}

TEST(FaultInjection, InjectedNaNInputIsCaughtAtTheEngineBoundary) {
  const auto a =
      Csr<double>::from_coo(random_coo<double>(64, 64, 0.1, 74));
  const auto engine = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar}, 2);
  auto x = bspmv::testing::random_x<double>(64, 75);
  aligned_vector<double> y(64, 0.0);
  EXPECT_NO_THROW(engine.run(x.data(), y.data(), nullptr, true));
  x[40] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(engine.run(x.data(), y.data(), nullptr, true),
               numerical_error);
}

// ---------------------------------------------------------------------
// Crash-safe persistence: the machine profile is written atomically with
// a trailing checksum, so a kill mid-write (simulated by truncation)
// is detected and answered with warn-and-regenerate, never a crash or a
// silently half-loaded profile.
// ---------------------------------------------------------------------

TEST(FaultInjection, TornProfileWriteIsDetectedAndRegenerated) {
  const MachineProfile profile = synthetic_profile();
  const TempFile file("fault_injection_torn_profile.json");
  profile.save(file.path());

  std::string raw;
  {
    std::ifstream f(file.path(), std::ios::binary);
    raw.assign((std::istreambuf_iterator<char>(f)),
               std::istreambuf_iterator<char>());
  }
  ASSERT_NE(raw.find("#bspmv-crc32:"), std::string::npos);

  // Every truncation point must yield either a typed refusal (load) and
  // a nullopt (try_load) — never an escape or a half-parsed profile.
  for (const std::size_t keep :
       {raw.size() - 3, raw.size() / 2, std::size_t{7}}) {
    file.write(raw.substr(0, keep));
    EXPECT_THROW((void)MachineProfile::load(file.path()), error)
        << "keep=" << keep;
    EXPECT_FALSE(MachineProfile::try_load(file.path()).has_value())
        << "keep=" << keep;
  }

  // A flipped payload bit is caught by the checksum even though the JSON
  // may still parse.
  std::string flipped = raw;
  flipped[raw.find("bandwidth") + 1] ^= 0x1;
  file.write(flipped);
  EXPECT_THROW((void)MachineProfile::load(file.path()), io_error);
  EXPECT_FALSE(MachineProfile::try_load(file.path()).has_value());

  // And the regenerate path: save over the corpse, load round-trips.
  profile.save(file.path());
  const auto reloaded = MachineProfile::try_load(file.path());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_DOUBLE_EQ(reloaded->bandwidth_bps, profile.bandwidth_bps);
}

}  // namespace
}  // namespace bspmv
