// Supervised distributed SpMV: rank supervision, checkpointed recovery
// and the degradation ladder (docs/distribution.md "Failure modes and
// recovery"). The load-bearing contract: a run that survives injected
// kills, stalls or corrupt frames must reproduce the fault-free
// distributed result *bitwise* (retried rounds are idempotent recomputes
// of y from the constant x), and every intervention must be visible in
// outcome()/recovery_log() — never silent. The ladder rungs (re-shard,
// single-node) only promise tolerance-level correctness: they change the
// decomposition, which reorders sums.
#include <gtest/gtest.h>

#include <unistd.h>

#include <sys/socket.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/models.hpp"
#include "src/dist/checkpoint.hpp"
#include "src/dist/comm.hpp"
#include "src/dist/driver.hpp"
#include "src/dist/messages.hpp"
#include "src/kernels/spmv.hpp"
#include "src/util/numerics.hpp"
#include "src/util/run_control.hpp"
#include "src/util/timing.hpp"
#include "tests/fault_injection.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using dist::DistCheckpoint;
using dist::DistOptions;
using dist::DistOutcome;
using dist::DistSpmv;
using dist::FaultKind;
using dist::FaultMsg;
using dist::RankShard;
using testing::binary_corruptions;
using testing::expect_typed_errors_only;
using testing::expect_vectors_near;
using testing::random_coo;
using testing::random_x;

Csr<double> test_matrix(index_t n, std::uint64_t seed) {
  return Csr<double>::from_coo(random_coo<double>(n, n, 0.12, seed));
}

DistOptions supervised_options(int ranks, double timeout = 5.0) {
  DistOptions opt;
  opt.ranks = ranks;
  opt.timeout_seconds = timeout;
  opt.supervise.enabled = true;
  return opt;
}

/// The fault-free supervised result for (a, opt, iterations) — the
/// bitwise reference every recovered run is held to.
aligned_vector<double> clean_reference(const Csr<double>& a,
                                       const DistOptions& opt,
                                       const aligned_vector<double>& x,
                                       int iterations) {
  DistSpmv d(a, opt);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data(), iterations);
  EXPECT_EQ(d.outcome(), DistOutcome::kClean);
  EXPECT_TRUE(d.recovery_log().empty());
  return y;
}

void expect_bitwise(const aligned_vector<double>& got,
                    const aligned_vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " diverges at row " << i;
}

/// Inject `f` into rank `r`, run, and require: the run completes, the
/// outcome is kRecovered with a non-empty log, the mesh is back to full
/// width, and y is bitwise the clean reference. Exercised in both
/// exchange modes — recovery must not depend on overlap timing.
void check_recovers_bitwise(const Csr<double>& a, const DistOptions& base,
                            int faulty_rank, const FaultMsg& f,
                            int iterations, const char* what) {
  const auto x = random_x<double>(a.cols(), 37);
  for (const DistMode mode : {DistMode::kOverlap, DistMode::kNaive}) {
    DistOptions opt = base;
    opt.mode = mode;
    const auto yref = clean_reference(a, opt, x, iterations);

    DistSpmv d(a, opt);
    d.inject_fault(faulty_rank, f);
    aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
    d.run(x.data(), y.data(), iterations);

    EXPECT_EQ(d.outcome(), DistOutcome::kRecovered) << what;
    ASSERT_FALSE(d.recovery_log().empty()) << what;
    EXPECT_EQ(d.ranks(), base.ranks) << what;
    expect_bitwise(y, yref, what);
  }
}

// ---------------------------------------------------------------------
// Recovery keeps the bitwise contract.

TEST(DistRecovery, CleanSupervisedRunIsCleanOutcome) {
  const Csr<double> a = test_matrix(56, 11);
  const auto x = random_x<double>(a.cols(), 5);
  DistSpmv d(a, supervised_options(3));
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data(), 4);
  EXPECT_EQ(d.outcome(), DistOutcome::kClean);
  EXPECT_TRUE(d.recovery_log().empty());
  EXPECT_EQ(d.resumed_iterations(), 0);

  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());
  expect_vectors_near(y.data(), yref.data(), a.rows(), "supervised clean");
}

TEST(DistRecovery, KillMidIterationRecoversBitwise) {
  const Csr<double> a = test_matrix(64, 21);
  FaultMsg f;
  f.kind = FaultKind::kExitAtIteration;
  f.at_iteration = 1;
  check_recovers_bitwise(a, supervised_options(3), /*faulty_rank=*/1, f,
                         /*iterations=*/4, "kill mid-iteration");
}

TEST(DistRecovery, KillMidExchangeRecoversBitwise) {
  // The rank dies *after posting* its halo sends, so peers are left
  // mid-protocol: some see EOF, some a half-written frame. Recovery must
  // drain that stale traffic before the retry.
  const Csr<double> a = test_matrix(64, 23);
  FaultMsg f;
  f.kind = FaultKind::kExitInExchange;
  f.at_iteration = 2;
  check_recovers_bitwise(a, supervised_options(3), /*faulty_rank=*/2, f,
                         /*iterations=*/4, "kill mid-exchange");
}

TEST(DistRecovery, StalledRankIsKilledAndRecovered) {
  // A wedged (not dead) rank: the driver's reply deadline passes, waitpid
  // says alive, so the supervisor SIGKILLs it into the dead set and
  // respawns. The stall (30 s) is far longer than the run — the test
  // passing quickly *is* the detection working.
  const Csr<double> a = test_matrix(56, 31);
  FaultMsg f;
  f.kind = FaultKind::kStallAtIteration;
  f.at_iteration = 1;
  f.seconds = 30.0;
  const auto x = random_x<double>(a.cols(), 7);
  DistOptions opt = supervised_options(3, /*timeout=*/0.5);
  const auto yref = clean_reference(a, opt, x, 4);

  DistSpmv d(a, opt);
  d.inject_fault(1, f);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data(), 4);

  EXPECT_EQ(d.outcome(), DistOutcome::kRecovered);
  ASSERT_FALSE(d.recovery_log().empty());
  EXPECT_EQ(d.recovery_log().front().cause, "rank_stalled");
  expect_bitwise(y, yref, "stalled rank");
}

TEST(DistRecovery, CorruptHaloFrameRecoversBitwise) {
  // One mangled halo frame: the receiving peer rejects it as a typed
  // parse error (never silent corruption), the round fails, and the
  // retry reproduces the clean result.
  const Csr<double> a = test_matrix(64, 41);
  FaultMsg f;
  f.kind = FaultKind::kCorruptHaloSend;
  f.at_iteration = 1;
  check_recovers_bitwise(a, supervised_options(3), /*faulty_rank=*/0, f,
                         /*iterations=*/3, "corrupt halo frame");
}

// ---------------------------------------------------------------------
// Degradation ladder.

TEST(DistRecovery, PersistentKillDegradesToSingleNode) {
  // Rank 1 dies in every incarnation; with 2 ranks there are no
  // survivors to re-shard over, so after max_respawns consecutive
  // failures the driver falls back to the single-node engine — and
  // *says so*. Later runs stay on that rung (the mesh is gone).
  const Csr<double> a = test_matrix(48, 51);
  DistOptions opt = supervised_options(2);
  opt.supervise.max_respawns = 1;
  DistSpmv d(a, opt);
  FaultMsg f;
  f.kind = FaultKind::kExitAtIteration;
  f.at_iteration = 0;
  d.inject_fault(1, f, /*persistent=*/true);

  const auto x = random_x<double>(a.cols(), 9);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data(), 3);

  EXPECT_EQ(d.outcome(), DistOutcome::kSingleNode);
  ASSERT_FALSE(d.recovery_log().empty());
  EXPECT_EQ(d.recovery_log().back().action, "single_node");
  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());
  expect_vectors_near(y.data(), yref.data(), a.rows(), "single-node rung");

  // The ladder is one-way within a driver: the next run reports the
  // same rung and still computes correctly.
  aligned_vector<double> y2(static_cast<std::size_t>(a.rows()), 1.0);
  d.run(x.data(), y2.data(), 2);
  EXPECT_EQ(d.outcome(), DistOutcome::kSingleNode);
  expect_vectors_near(y2.data(), yref.data(), a.rows(), "single-node again");
}

TEST(DistRecovery, ReshardsOverSurvivorsBeforeSingleNode) {
  // 3 ranks, rank 2 persistently dying: once respawns are exhausted the
  // first rung re-shards over the 2 survivors (armed faults die with the
  // old mesh, so the re-sharded run completes).
  const Csr<double> a = test_matrix(60, 61);
  DistOptions opt = supervised_options(3);
  opt.supervise.max_respawns = 1;
  DistSpmv d(a, opt);
  FaultMsg f;
  f.kind = FaultKind::kExitAtIteration;
  f.at_iteration = 0;
  d.inject_fault(2, f, /*persistent=*/true);

  const auto x = random_x<double>(a.cols(), 13);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data(), 3);

  EXPECT_EQ(d.outcome(), DistOutcome::kResharded);
  EXPECT_EQ(d.ranks(), 2);
  ASSERT_FALSE(d.recovery_log().empty());
  EXPECT_EQ(d.recovery_log().back().action, "reshard");
  EXPECT_EQ(d.recovery_log().back().ranks_after, 2);
  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());
  expect_vectors_near(y.data(), yref.data(), a.rows(), "reshard rung");
}

TEST(DistRecovery, RungExhaustionRethrowsTyped) {
  // Both rungs disabled: supervision still retries, but exhaustion must
  // surface the underlying failure through the typed taxonomy — exactly
  // what the unsupervised contract would have thrown.
  const Csr<double> a = test_matrix(40, 71);
  DistOptions opt = supervised_options(2);
  opt.supervise.max_respawns = 1;
  opt.supervise.allow_reshard = false;
  opt.supervise.allow_single_node = false;
  DistSpmv d(a, opt);
  FaultMsg f;
  f.kind = FaultKind::kExitAtIteration;
  f.at_iteration = 0;
  d.inject_fault(1, f, /*persistent=*/true);

  const auto x = random_x<double>(a.cols(), 3);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  EXPECT_THROW(d.run(x.data(), y.data(), 2), error);
  ASSERT_FALSE(d.recovery_log().empty());
  EXPECT_EQ(d.recovery_log().back().action, "abort");
}

// ---------------------------------------------------------------------
// Run-deadline unification: a RunControl deadline bounds wire waits.

TEST(DistRecovery, DeadlineBoundsStallDetection) {
  // A 30 s stall against a 10 s wire timeout, but a 0.5 s run deadline:
  // the deadline must clamp the per-frame waits so the run unwinds with
  // timeout_error in ~deadline time, not ~wire-timeout time.
  const Csr<double> a = test_matrix(48, 81);
  DistOptions opt = supervised_options(2, /*timeout=*/10.0);
  opt.supervise.max_respawns = 0;
  opt.supervise.allow_reshard = false;
  opt.supervise.allow_single_node = false;
  DistSpmv d(a, opt);
  FaultMsg f;
  f.kind = FaultKind::kStallAtIteration;
  f.at_iteration = 0;
  f.seconds = 30.0;
  d.inject_fault(1, f);

  RunControl control;
  control.set_deadline(0.5);
  d.set_control(&control);
  const auto x = random_x<double>(a.cols(), 17);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  Timer t;
  EXPECT_THROW(d.run(x.data(), y.data(), 2), timeout_error);
  EXPECT_LT(t.elapsed(), 6.0);  // far below the 10 s wire timeout
}

// ---------------------------------------------------------------------
// Checkpoints.

TEST(DistCheckpointFile, RoundTripAndCorruptPayloadsFailTyped) {
  DistCheckpoint ck;
  ck.completed = 5;
  ck.total = 12;
  ck.x = {1.5, -2.25, 3.0, 0.0625};
  ck.x_fingerprint = bits_fingerprint(ck.x.data(), ck.x.size());

  const DistCheckpoint back = DistCheckpoint::decode(ck.encode());
  EXPECT_EQ(back.completed, 5u);
  EXPECT_EQ(back.total, 12u);
  EXPECT_EQ(back.x, ck.x);
  EXPECT_EQ(back.x_fingerprint, ck.x_fingerprint);

  expect_typed_errors_only(
      binary_corruptions(ck.encode()),
      [](const std::string& s) { dist::DistCheckpoint::decode(s); },
      "DistCheckpoint");
}

TEST(DistCheckpointFile, SaveLoadAndCorruptFilesAreRejected) {
  const std::string path = ::testing::TempDir() + "/bspmv_dist_ck_test";
  DistCheckpoint ck;
  ck.completed = 3;
  ck.total = 8;
  ck.x = {0.5, 1.5, 2.5};
  ck.x_fingerprint = bits_fingerprint(ck.x.data(), ck.x.size());
  dist::save_checkpoint(path, ck);

  const auto loaded = dist::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->completed, 3u);
  EXPECT_EQ(loaded->x, ck.x);

  // Absent, truncated and bit-flipped files all load as nullopt — a bad
  // checkpoint costs the resume position, never the run.
  EXPECT_FALSE(dist::load_checkpoint(path + ".absent").has_value());
  std::ifstream in(path, std::ios::binary);
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size() / 2));
  }
  EXPECT_FALSE(dist::load_checkpoint(path).has_value());
  raw[raw.size() / 3] = static_cast<char>(raw[raw.size() / 3] ^ 0x20);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }
  EXPECT_FALSE(dist::load_checkpoint(path).has_value());
  std::remove(path.c_str());
}

TEST(DistCheckpointFile, ResumeSkipsVouchedIterationsBitwise) {
  const Csr<double> a = test_matrix(56, 91);
  const auto x = random_x<double>(a.cols(), 19);
  DistOptions opt = supervised_options(2);
  opt.supervise.checkpoint_interval = 2;
  const int iterations = 6;
  const auto yref = clean_reference(a, opt, x, iterations);

  // A checkpoint vouching for 4 of the 6 iterations, fingerprinted
  // against this exact x.
  const std::string path = ::testing::TempDir() + "/bspmv_dist_ck_resume";
  DistCheckpoint ck;
  ck.completed = 4;
  ck.total = static_cast<std::uint32_t>(iterations);
  ck.x.assign(x.begin(), x.end());
  ck.x_fingerprint = bits_fingerprint(x.data(), x.size());
  dist::save_checkpoint(path, ck);

  opt.supervise.checkpoint_path = path;
  DistSpmv d(a, opt);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data(), iterations);
  EXPECT_EQ(d.resumed_iterations(), 4);
  expect_bitwise(y, yref, "checkpoint resume");
  // A completed run retires its checkpoint.
  EXPECT_FALSE(dist::load_checkpoint(path).has_value());
}

TEST(DistCheckpointFile, FingerprintMismatchStartsFromZero) {
  const Csr<double> a = test_matrix(48, 101);
  const auto x = random_x<double>(a.cols(), 23);
  const std::string path = ::testing::TempDir() + "/bspmv_dist_ck_mismatch";
  DistCheckpoint ck;
  ck.completed = 2;
  ck.total = 4;
  ck.x.assign(x.begin(), x.end());
  ck.x[0] += 1.0;  // a different problem
  ck.x_fingerprint = bits_fingerprint(ck.x.data(), ck.x.size());
  dist::save_checkpoint(path, ck);

  DistOptions opt = supervised_options(2);
  opt.supervise.checkpoint_path = path;
  DistSpmv d(a, opt);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data(), 4);
  EXPECT_EQ(d.resumed_iterations(), 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Epoch consistency on the halo wire.

TEST(DistCommEpoch, StaleEpochFrameIsTypedParseError) {
  // Two in-process exchange endpoints whose epochs disagree — the shape
  // of a delayed pre-recovery frame arriving after the mesh healed. The
  // receiver must reject it as parse_error, not absorb stale data.
  RankShard s0;
  s0.x_begin = 0;
  s0.x_end = 2;
  s0.halo_cols = {2};
  s0.halo_seg = {0, 0, 1};
  s0.send_cols = {{}, {0}};

  RankShard s1;
  s1.x_begin = 2;
  s1.x_end = 4;
  s1.halo_cols = {0};
  s1.halo_seg = {0, 1, 1};
  s1.send_cols = {{0}, {}};

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::WireLimits limits;
  limits.read_timeout_seconds = 1.0;

  const double x0[2] = {1, 2};
  const double x1[2] = {3, 4};
  double halo0[1] = {0};
  double halo1[1] = {0};

  // Pairwise ordering: the lower rank sends first. Rank 0 ships a frame
  // stamped with the pre-recovery epoch 1; rank 1 — already healed to
  // epoch 2 — must reject it on receipt.
  std::thread peer([&] {
    dist::HaloExchange ex(s0, 0, {-1, fds[0]}, limits);
    ex.start(x0, halo0, /*iter=*/0, /*epoch=*/1);  // stale epoch
    try {
      ex.finish();
    } catch (const error&) {
      // Rank 1 aborted before its own send; this recv times out.
    }
  });
  {
    dist::HaloExchange ex(s1, 1, {fds[1], -1}, limits);
    ex.start(x1, halo1, /*iter=*/0, /*epoch=*/2);  // post-recovery epoch
    EXPECT_THROW(ex.finish(), parse_error);
  }
  peer.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------
// Recovery cost models.

MachineProfile recovery_profile() {
  MachineProfile p;
  p.bandwidth_bps = 2e10;
  return p;
}

TEST(RecoveryModel, CheckpointIntervalFollowsYoung) {
  const double t_iter = 1e-3, ckpt = 5e-3;
  const int at_1h = dist_checkpoint_interval(t_iter, ckpt, 3600.0);
  const int at_1m = dist_checkpoint_interval(t_iter, ckpt, 60.0);
  EXPECT_GE(at_1m, 1);
  EXPECT_GT(at_1h, at_1m);  // rarer failures -> longer intervals
  // sqrt scaling: 100x the MTBF stretches the interval ~10x.
  const int at_100h = dist_checkpoint_interval(t_iter, ckpt, 360000.0);
  EXPECT_NEAR(static_cast<double>(at_100h) / at_1h, 10.0, 0.5);
  // Non-positive inputs mean "no model choice".
  EXPECT_EQ(dist_checkpoint_interval(0.0, ckpt, 60.0), 0);
  EXPECT_EQ(dist_checkpoint_interval(t_iter, 0.0, 60.0), 0);
  EXPECT_EQ(dist_checkpoint_interval(t_iter, ckpt, 0.0), 0);
}

TEST(RecoveryModel, CheckpointAndRestartCostsAreGuardedAndMonotone) {
  const MachineProfile p = recovery_profile();
  const double small = dist_checkpoint_seconds(p, 1u << 20);
  const double big = dist_checkpoint_seconds(p, 64u << 20);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(big, small);
  MachineProfile unprofiled;
  EXPECT_THROW(dist_checkpoint_seconds(unprofiled, 1024),
               invalid_argument_error);
}

TEST(RecoveryModel, OutcomeNamesAreStable) {
  EXPECT_STREQ(dist::dist_outcome_name(DistOutcome::kClean), "clean");
  EXPECT_STREQ(dist::dist_outcome_name(DistOutcome::kRecovered), "recovered");
  EXPECT_STREQ(dist::dist_outcome_name(DistOutcome::kResharded), "resharded");
  EXPECT_STREQ(dist::dist_outcome_name(DistOutcome::kSingleNode),
               "single_node");
}

}  // namespace
}  // namespace bspmv
