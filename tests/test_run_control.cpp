// Unit tests for the resilient-execution substrate: RunControl
// (deadline / cancellation / heartbeat), the Watchdog, the crash-safe
// atomic_write_file + checksum reader, the Measurement timing primitive
// and the numeric health guards. The engine integration is covered by
// test_engine and test_fault_injection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/util/atomic_file.hpp"
#include "src/util/errors.hpp"
#include "src/util/numerics.hpp"
#include "src/util/run_control.hpp"
#include "src/util/timing.hpp"

namespace bspmv {
namespace {

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Spin until `pred` holds or ~2 s elapse; returns whether it held.
template <class Pred>
bool eventually(Pred pred, double budget_seconds = 2.0) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() > budget_seconds)
      return false;
    sleep_s(1e-3);
  }
  return true;
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  void write_raw(const std::string& text) const {
    std::ofstream f(path_, std::ios::binary);
    f << text;
  }
  std::string read_raw() const {
    std::ifstream f(path_, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
    return s;
  }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------
// RunControl basics
// ---------------------------------------------------------------------

TEST(RunControl, FreshControlIsLive) {
  RunControl rc;
  EXPECT_FALSE(rc.stop_requested());
  EXPECT_FALSE(rc.has_deadline());
  EXPECT_EQ(rc.reason(), AbortReason::kNone);
  EXPECT_TRUE(rc.message().empty());
  EXPECT_TRUE(std::isinf(rc.remaining_seconds()));
  EXPECT_NO_THROW(rc.check());
  EXPECT_NO_THROW(rc.throw_if_aborted());
}

TEST(RunControl, CancelThrowsCancelledError) {
  RunControl rc;
  rc.request_cancel("user hit ^C");
  EXPECT_TRUE(rc.stop_requested());
  EXPECT_EQ(rc.reason(), AbortReason::kCancelled);
  EXPECT_THROW(rc.check(), cancelled_error);
  try {
    rc.throw_if_aborted();
    FAIL() << "expected cancelled_error";
  } catch (const cancelled_error& e) {
    EXPECT_NE(std::string(e.what()).find("user hit ^C"), std::string::npos);
  }
  // cancelled_error must stay inside the execution_error family.
  EXPECT_THROW(rc.check(), execution_error);
}

TEST(RunControl, FirstAbortWins) {
  RunControl rc;
  rc.abort(AbortReason::kDeadline, "first");
  rc.abort(AbortReason::kCancelled, "second");
  EXPECT_EQ(rc.reason(), AbortReason::kDeadline);
  EXPECT_EQ(rc.message(), "first");
  EXPECT_THROW(rc.check(), timeout_error);
}

TEST(RunControl, ExpiredDeadlineThrowsTimeoutOnCheck) {
  RunControl rc;
  rc.set_deadline(5e-3);
  EXPECT_TRUE(rc.has_deadline());
  sleep_s(0.02);
  EXPECT_LT(rc.remaining_seconds(), 0.0);
  EXPECT_THROW(rc.check(), timeout_error);
  EXPECT_EQ(rc.reason(), AbortReason::kDeadline);
}

TEST(RunControl, HeartbeatsAccumulateAndFoldSlots) {
  RunControl rc;
  rc.heartbeat(0);
  rc.heartbeat(0);
  rc.heartbeat(3);
  rc.heartbeat(3 + RunControl::kThreadSlots);  // folds onto slot 3
  EXPECT_EQ(rc.beats(0), 2u);
  EXPECT_EQ(rc.beats(3), 2u);
  EXPECT_EQ(rc.total_beats(), 4u);
}

TEST(RunControl, ScopedCurrentNestsAndRestores) {
  EXPECT_EQ(RunControl::current(), nullptr);
  RunControl outer, inner;
  {
    RunControl::ScopedCurrent a(&outer);
    EXPECT_EQ(RunControl::current(), &outer);
    {
      RunControl::ScopedCurrent b(&inner);
      EXPECT_EQ(RunControl::current(), &inner);
    }
    EXPECT_EQ(RunControl::current(), &outer);
  }
  EXPECT_EQ(RunControl::current(), nullptr);
}

TEST(RunControl, AbortReasonNames) {
  EXPECT_STREQ(abort_reason_name(AbortReason::kNone), "none");
  EXPECT_STREQ(abort_reason_name(AbortReason::kCancelled), "cancelled");
  EXPECT_STREQ(abort_reason_name(AbortReason::kDeadline), "deadline");
  EXPECT_STREQ(abort_reason_name(AbortReason::kStalled), "stalled");
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, NoBudgetsIsInert) {
  RunControl rc;
  {
    Watchdog dog(rc);
    sleep_s(0.01);
  }
  EXPECT_FALSE(rc.stop_requested());
}

TEST(Watchdog, FiresDeadlineWhileWorkerNeverReadsClock) {
  // The worker only polls stop_requested() (the production granule-chunk
  // poll); only the watchdog reads the clock. Detection must land well
  // within 2x the deadline.
  RunControl rc;
  const double deadline = 0.05;
  rc.set_deadline(deadline);
  Watchdog dog(rc, /*poll_seconds=*/0.005);

  const auto t0 = std::chrono::steady_clock::now();
  std::thread worker([&] {
    while (!rc.stop_requested()) sleep_s(1e-3);
  });
  worker.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(rc.reason(), AbortReason::kDeadline);
  EXPECT_THROW(rc.throw_if_aborted(), timeout_error);
  EXPECT_LT(elapsed, 2 * deadline);
}

TEST(Watchdog, DetectsStalledWorker) {
  RunControl rc;
  rc.set_stall_timeout(0.05);
  Watchdog dog(rc, /*poll_seconds=*/0.005);

  // Healthy phase: keep heartbeating past the stall window — the
  // watchdog must treat progress as progress.
  for (int i = 0; i < 30; ++i) {
    rc.heartbeat(0);
    sleep_s(5e-3);
  }
  EXPECT_FALSE(rc.stop_requested());

  // Stall phase: stop heartbeating entirely.
  ASSERT_TRUE(eventually([&] { return rc.stop_requested(); }));
  EXPECT_EQ(rc.reason(), AbortReason::kStalled);
  EXPECT_THROW(rc.throw_if_aborted(), timeout_error);
  EXPECT_NE(rc.message().find("stalled"), std::string::npos);
}

TEST(Watchdog, CancellationBeatsTheWatchdog) {
  RunControl rc;
  rc.set_deadline(10.0);  // far away
  Watchdog dog(rc);
  std::thread canceller([&] {
    sleep_s(0.01);
    rc.request_cancel("shutting down");
  });
  ASSERT_TRUE(eventually([&] { return rc.stop_requested(); }));
  canceller.join();
  EXPECT_EQ(rc.reason(), AbortReason::kCancelled);
  EXPECT_THROW(rc.throw_if_aborted(), cancelled_error);
}

// ---------------------------------------------------------------------
// atomic_write_file / checksum reader
// ---------------------------------------------------------------------

TEST(AtomicFile, RoundTripsPlainPayload) {
  TempFile f("atomic_plain.json");
  atomic_write_file(f.path(), "{\"a\": 1}\n");
  const auto text = read_file_if_exists(f.path());
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "{\"a\": 1}\n");
}

TEST(AtomicFile, ReplacesExistingFileAtomically) {
  TempFile f("atomic_replace.json");
  atomic_write_file(f.path(), "old\n");
  atomic_write_file(f.path(), "new\n");
  EXPECT_EQ(read_file_checked(f.path()), "new\n");
}

TEST(AtomicFile, ChecksummedRoundTripStripsTrailer) {
  TempFile f("atomic_checksum.json");
  atomic_write_file(f.path(), "{\"bw\": 2.5e10}\n", /*with_checksum=*/true);
  const std::string raw = f.read_raw();
  EXPECT_NE(raw.find("#bspmv-crc32:"), std::string::npos);
  EXPECT_EQ(read_file_checked(f.path()), "{\"bw\": 2.5e10}\n");
}

TEST(AtomicFile, ChecksummedRoundTripIsByteExact) {
  // The trailer protocol must not disturb the payload — not even by one
  // newline — or binary payloads (spooled matrices) would corrupt.
  TempFile f("atomic_no_newline.txt");
  atomic_write_file(f.path(), "no trailing newline", /*with_checksum=*/true);
  EXPECT_EQ(read_file_checked(f.path()), "no trailing newline");

  // Hostile payload containing the trailer marker itself mid-stream.
  const std::string binary{"\x00\x01\xff\n#bspmv-crc32:\x7f", 18};
  atomic_write_file(f.path(), binary, /*with_checksum=*/true);
  EXPECT_EQ(read_file_checked(f.path()), binary);
}

TEST(AtomicFile, DetectsFlippedPayloadByte) {
  TempFile f("atomic_flip.json");
  atomic_write_file(f.path(), "{\"tb\": 1.5e-9}\n", /*with_checksum=*/true);
  std::string raw = f.read_raw();
  raw[2] ^= 0x20;  // flip a bit inside the payload
  f.write_raw(raw);
  EXPECT_THROW((void)read_file_checked(f.path()), io_error);
}

TEST(AtomicFile, DetectsTruncatedTrailer) {
  // A kill mid-write without the atomic protocol would truncate the file;
  // simulate the resulting torn trailer.
  TempFile f("atomic_truncated.json");
  atomic_write_file(f.path(), "{\"x\": 1}\n", /*with_checksum=*/true);
  std::string raw = f.read_raw();
  f.write_raw(raw.substr(0, raw.size() - 5));
  EXPECT_THROW((void)read_file_checked(f.path()), io_error);
}

TEST(AtomicFile, AcceptsLegacyFileWithoutTrailer) {
  TempFile f("atomic_legacy.json");
  f.write_raw("{\"legacy\": true}\n");
  EXPECT_EQ(read_file_checked(f.path()), "{\"legacy\": true}\n");
}

TEST(AtomicFile, MissingFileIsNulloptOrIoError) {
  TempFile f("atomic_missing.json");
  EXPECT_FALSE(read_file_if_exists(f.path()).has_value());
  EXPECT_THROW((void)read_file_checked(f.path()), io_error);
}

TEST(AtomicFile, NoTempFileSurvives) {
  TempFile f("atomic_clean.json");
  atomic_write_file(f.path(), "x\n");
  std::ifstream tmp(f.path() + ".tmp");
  EXPECT_FALSE(static_cast<bool>(tmp));
}

TEST(AtomicFile, Crc32MatchesKnownVector) {
  // The standard CRC-32 (IEEE) check value.
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

TEST(Measurement, FixedBatchesCountEveryCall) {
  int calls = 0;
  const Measurement m{.batches = 3, .warmup = 2, .iterations = 10};
  const Samples s = m.run([&] { ++calls; });
  EXPECT_EQ(calls, 2 + 3 * 10);
  EXPECT_EQ(s.iterations, 10u);
  ASSERT_EQ(s.seconds.size(), 3u);
  EXPECT_GE(s.min, 0.0);
  EXPECT_LE(s.min, s.median);
  EXPECT_GE(s.iqr, 0.0);
}

TEST(Measurement, GrowsBatchToMinimumTime) {
  std::uint64_t calls = 0;
  const Measurement m{.batches = 2, .warmup = 0, .min_batch_seconds = 2e-3};
  const Samples s = m.run([&] {
    ++calls;
    do_not_optimize(calls);
  });
  ASSERT_EQ(s.seconds.size(), 2u);
  EXPECT_GT(s.iterations, 1u);  // grew beyond one call per batch
  // The kept growth batch reached the minimum time, and both timed
  // batches ran at the grown size (plus the dropped growth batches).
  EXPECT_GE(s.seconds.front() * static_cast<double>(s.iterations), 2e-3);
  EXPECT_GT(calls, 2 * s.iterations);
}

TEST(Measurement, InterleavesArmsBatchByBatch) {
  std::string order;
  std::string hooks;
  Measurement m{.batches = 3, .warmup = 1, .iterations = 2};
  m.after_batch = [&](std::size_t arm) {
    hooks += static_cast<char>('0' + arm);
  };
  const std::vector<Samples> s =
      m.run({[&] { order += 'a'; }, [&] { order += 'b'; }});
  // Warm-up of each arm, then batch b of every arm before batch b + 1.
  EXPECT_EQ(order, "ab" "aabb" "aabb" "aabb");
  EXPECT_EQ(hooks, "010101");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].seconds.size(), 3u);
  EXPECT_EQ(s[1].seconds.size(), 3u);
}

TEST(Measurement, SummarizesMinMedianAndIqr) {
  const Samples even = summarize({4.0, 1.0, 3.0, 2.0}, 7);
  EXPECT_EQ(even.seconds, (std::vector<double>{4.0, 1.0, 3.0, 2.0}));
  EXPECT_EQ(even.iterations, 7u);
  EXPECT_DOUBLE_EQ(even.min, 1.0);
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.iqr, 3.25 - 1.75);

  const Samples odd = summarize({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(odd.median, 3.0);
  EXPECT_DOUBLE_EQ(odd.iqr, 4.0 - 2.0);

  const Samples one = summarize({2.0});
  EXPECT_DOUBLE_EQ(one.min, 2.0);
  EXPECT_DOUBLE_EQ(one.median, 2.0);
  EXPECT_DOUBLE_EQ(one.iqr, 0.0);
}

TEST(Measurement, CompareReturnsEveryVerdict) {
  auto arm = [](double median, double iqr) {
    Samples s;
    s.median = median;
    s.iqr = iqr;
    return s;
  };
  const Samples a = arm(1.0, 0.1);
  const Samples b = arm(1.5, 0.2);
  EXPECT_EQ(compare(a, b), Verdict::kFaster);
  EXPECT_EQ(compare(b, a), Verdict::kSlower);
  // Inside the larger IQR, either way round.
  EXPECT_EQ(compare(a, arm(1.05, 0.0)), Verdict::kIndistinguishable);
  EXPECT_EQ(compare(arm(1.05, 0.0), a), Verdict::kIndistinguishable);
  EXPECT_EQ(compare(a, arm(1.3, 0.4)), Verdict::kIndistinguishable);
  // A gap of exactly the floor does not clear it.
  EXPECT_EQ(compare(arm(1.0, 0.5), arm(1.5, 0.25)),
            Verdict::kIndistinguishable);
  // With no observed spread any gap counts; no gap never does.
  EXPECT_EQ(compare(arm(1.0, 0.0), arm(1.001, 0.0)), Verdict::kFaster);
  EXPECT_EQ(compare(a, a), Verdict::kIndistinguishable);
  EXPECT_STREQ(verdict_name(Verdict::kFaster), "faster");
  EXPECT_STREQ(verdict_name(Verdict::kSlower), "slower");
  EXPECT_STREQ(verdict_name(Verdict::kIndistinguishable),
               "indistinguishable");
}

TEST(Measurement, CancelBetweenBatchesThrowsTypedError) {
  RunControl rc;
  int calls = 0;
  const Measurement m{.batches = 5, .warmup = 0, .control = &rc};
  EXPECT_THROW(m.run([&] {
                 if (++calls == 3) rc.request_cancel("stop after batch 3");
               }),
               cancelled_error);
  EXPECT_EQ(calls, 3);  // batch 4's poll threw; no call ran after it
}

TEST(Measurement, WatchdogDeadlineStopsBetweenBatches) {
  // The Watchdog thread trips the control while the arm spins; the
  // primitive's poll before the next batch surfaces the typed error.
  RunControl rc;
  rc.set_deadline(0.05);
  Watchdog wd(rc, 0.005);
  std::uint64_t calls = 0;
  const Measurement m{.batches = 1 << 30, .warmup = 0, .iterations = 64,
                      .control = &rc};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(m.run([&] { do_not_optimize(++calls); }), timeout_error);
  EXPECT_EQ(rc.reason(), AbortReason::kDeadline);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            2.0);
}

TEST(Measurement, RejectsBadArguments) {
  auto fn = [] {};
  EXPECT_THROW(Measurement{.batches = 0}.run(fn), invalid_argument_error);
  EXPECT_THROW(Measurement{.warmup = -1}.run(fn), invalid_argument_error);
  EXPECT_THROW(Measurement{.iterations = 0}.run(fn), invalid_argument_error);
  EXPECT_THROW(Measurement{.min_batch_seconds = -1.0}.run(fn),
               invalid_argument_error);
  EXPECT_THROW(Measurement{}.run(std::vector<std::function<void()>>{}),
               invalid_argument_error);
  EXPECT_THROW(summarize({}), invalid_argument_error);
}

// ---------------------------------------------------------------------
// numeric guards
// ---------------------------------------------------------------------

TEST(Numerics, CountsAndReportsNonFinite) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(count_nonfinite(v.data(), v.size()), 0u);
  EXPECT_NO_THROW(check_finite("x", v.data(), v.size()));

  v[1] = std::numeric_limits<double>::quiet_NaN();
  v[3] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(count_nonfinite(v.data(), v.size()), 2u);
  try {
    check_finite("input vector x", v.data(), v.size());
    FAIL() << "expected numerical_error";
  } catch (const numerical_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("input vector x"), std::string::npos);
    EXPECT_NE(what.find("index 1"), std::string::npos);
    EXPECT_NE(what.find("2 of 4"), std::string::npos);
  }
}

TEST(Numerics, FingerprintIsBitExact) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = a;
  EXPECT_EQ(bits_fingerprint(a.data(), a.size()),
            bits_fingerprint(b.data(), b.size()));
  b[2] = std::nextafter(b[2], 4.0);  // one ULP
  EXPECT_NE(bits_fingerprint(a.data(), a.size()),
            bits_fingerprint(b.data(), b.size()));
  // +0.0 and -0.0 compare equal but are different bit patterns — the
  // fingerprint must distinguish them (it hashes bits, not values).
  std::vector<double> pz = {0.0}, nz = {-0.0};
  EXPECT_NE(bits_fingerprint(pz.data(), 1), bits_fingerprint(nz.data(), 1));
}

}  // namespace
}  // namespace bspmv
