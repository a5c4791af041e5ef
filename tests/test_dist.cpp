// Distributed SpMV: shard-plan invariants, the HaloDec column split
// under the rank's executors, multi-process parity (bitwise vs the
// same decomposition in-process, tolerance vs serial CSR), the overlap
// and naive exchange modes, wire-decoder fuzzing, rank-kill and
// stale-reply fault injection, the mesh builder's fd hygiene and the
// communication model/benchmark.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/models.hpp"
#include "src/dist/comm.hpp"
#include "src/dist/driver.hpp"
#include "src/dist/halo_format.hpp"
#include "src/dist/messages.hpp"
#include "src/dist/shard_plan.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "src/profile/comm_bench.hpp"
#include "src/profile/machine_profile.hpp"
#include "src/util/errors.hpp"
#include "tests/fault_injection.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using dist::DistOptions;
using dist::DistOutcome;
using dist::DistSpmv;
using dist::FaultKind;
using dist::FaultMsg;
using dist::HaloDec;
using dist::RankShard;
using dist::ShardPlan;
using dist::plan_shards;
using testing::expect_same_bits;
using testing::expect_typed_errors_only;
using testing::expect_vectors_near;
using testing::random_coo;
using testing::random_x;

Csr<double> test_matrix(index_t n, index_t m, double density,
                        std::uint64_t seed) {
  return Csr<double>::from_coo(random_coo<double>(n, m, density, seed));
}

/// A matrix with strongly skewed row density: the top rows are much
/// denser, so nnz-balanced shards get very different row counts.
Csr<double> skewed_matrix(index_t n, std::uint64_t seed) {
  Coo<double> coo(n, n);
  Xoshiro256 rng(seed);
  for (index_t i = 0; i < n; ++i) {
    const double density = i < n / 8 ? 0.5 : 0.02;
    for (index_t j = 0; j < n; ++j)
      if (rng.uniform() < density)
        coo.add(i, j, 0.1 + rng.uniform());
  }
  return Csr<double>::from_coo(std::move(coo));
}

// ---------------------------------------------------------------------
// Shard plan structure.

TEST(ShardPlan, BoundsCoverAndHaloMirrorsSendLists) {
  const Csr<double> a = test_matrix(60, 60, 0.08, 42);
  for (int ranks : {1, 2, 3, 4}) {
    const ShardPlan plan = plan_shards(a, ranks);
    ASSERT_EQ(plan.ranks, ranks);
    ASSERT_EQ(static_cast<int>(plan.shards.size()), ranks);
    ASSERT_EQ(plan.row_bounds.front(), 0);
    ASSERT_EQ(plan.row_bounds.back(), a.rows());
    ASSERT_EQ(plan.x_bounds.back(), a.cols());

    std::size_t nnz_total = 0;
    for (int r = 0; r < ranks; ++r) {
      const RankShard& sh = plan.shards[static_cast<std::size_t>(r)];
      EXPECT_LE(sh.row_begin, sh.row_end);
      EXPECT_LE(sh.x_begin, sh.x_end);
      EXPECT_EQ(sh.local_nnz + sh.halo_nnz, sh.nnz);
      nnz_total += sh.nnz;
      // Halo columns are sorted, outside the owned range, and segmented
      // consistently with the owning ranks' x bounds.
      ASSERT_EQ(sh.halo_seg.size(), static_cast<std::size_t>(ranks) + 1);
      ASSERT_EQ(sh.halo_seg.back(),
                static_cast<index_t>(sh.halo_cols.size()));
      for (std::size_t k = 0; k < sh.halo_cols.size(); ++k) {
        const index_t c = sh.halo_cols[k];
        EXPECT_TRUE(c < sh.x_begin || c >= sh.x_end);
        if (k) {
          EXPECT_LT(sh.halo_cols[k - 1], c);
        }
      }
      for (int p = 0; p < ranks; ++p) {
        const index_t s0 = sh.halo_seg[static_cast<std::size_t>(p)];
        const index_t s1 = sh.halo_seg[static_cast<std::size_t>(p) + 1];
        for (index_t k = s0; k < s1; ++k) {
          const index_t c = sh.halo_cols[static_cast<std::size_t>(k)];
          EXPECT_GE(c, plan.x_bounds[static_cast<std::size_t>(p)]);
          EXPECT_LT(c, plan.x_bounds[static_cast<std::size_t>(p) + 1]);
        }
      }
    }
    EXPECT_EQ(nnz_total, a.nnz());

    // Mirror symmetry: what r receives from p is exactly what p sends
    // to r, in the same order, translated between index spaces.
    for (int r = 0; r < ranks; ++r) {
      const RankShard& dst = plan.shards[static_cast<std::size_t>(r)];
      for (int p = 0; p < ranks; ++p) {
        if (p == r) continue;
        const RankShard& src = plan.shards[static_cast<std::size_t>(p)];
        const index_t s0 = dst.halo_seg[static_cast<std::size_t>(p)];
        const index_t s1 = dst.halo_seg[static_cast<std::size_t>(p) + 1];
        const auto& send = src.send_cols[static_cast<std::size_t>(r)];
        ASSERT_EQ(static_cast<index_t>(send.size()), s1 - s0);
        for (index_t k = 0; k < s1 - s0; ++k)
          EXPECT_EQ(send[static_cast<std::size_t>(k)] + src.x_begin,
                    dst.halo_cols[static_cast<std::size_t>(s0 + k)]);
      }
    }
  }
}

TEST(ShardPlan, RankCountIsValidated) {
  const Csr<double> a = test_matrix(8, 8, 0.3, 1);
  EXPECT_THROW(plan_shards(a, 0), invalid_argument_error);
  EXPECT_THROW(plan_shards(a, -2), invalid_argument_error);
  EXPECT_THROW(plan_shards(a, dist::kMaxRanks + 1), invalid_argument_error);
}

// ---------------------------------------------------------------------
// HaloDec through the rank's executors.

/// The shard view of x for `h`: [owned slice | halo values in halo_cols
/// order], the buffer the halo exchange fills.
aligned_vector<double> shard_x(const HaloDec<double>& h,
                               const aligned_vector<double>& x,
                               index_t x_begin) {
  aligned_vector<double> xs;
  for (index_t c = 0; c < h.local_cols(); ++c)
    xs.push_back(x[static_cast<std::size_t>(x_begin + c)]);
  for (index_t c : h.halo_cols()) xs.push_back(x[static_cast<std::size_t>(c)]);
  return xs;
}

/// y = shard · x as src/dist/rank.cpp computes it: the local columns
/// through a ThreadedSpmv (threads == 0: zero-fill and a serial
/// spmv_add), then the halo columns through a serial spmv_add.
void run_as_rank(const HaloDec<double>& h, const aligned_vector<double>& xs,
                 double* y, int threads, ExecBackend schedule, Impl impl) {
  if (threads >= 1) {
    ThreadedSpmv<Csr<double>>(h.local(), threads, schedule)
        .run(xs.data(), y, impl);
  } else {
    std::fill(y, y + h.rows(), 0.0);
    FormatOps<Csr<double>>::spmv_add(h.local(), xs.data(), y, impl);
  }
  FormatOps<Csr<double>>::spmv_add(h.halo(), xs.data() + h.local_cols(), y,
                                   impl);
}

TEST(HaloDecFormat, SplitMatchesSerialCsr) {
  const Csr<double> a = test_matrix(40, 40, 0.12, 7);
  const auto x = random_x<double>(a.cols(), 11);
  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());

  // Split at an interior owned range: every entry lands in exactly one
  // part, and the halo columns are the sorted columns outside it.
  const index_t xb = 10, xe = 25;
  const HaloDec<double> h = HaloDec<double>::split(a, 0, a.rows(), xb, xe);
  ASSERT_EQ(h.rows(), a.rows());
  ASSERT_EQ(h.local_cols(), xe - xb);
  EXPECT_EQ(h.local().nnz() + h.halo().nnz(), a.nnz());
  ASSERT_EQ(static_cast<std::size_t>(h.halo_count()), h.halo_cols().size());
  for (std::size_t k = 0; k < h.halo_cols().size(); ++k) {
    const index_t c = h.halo_cols()[k];
    EXPECT_TRUE(c < xb || c >= xe) << c;
    if (k) {
      EXPECT_LT(h.halo_cols()[k - 1], c);
    }
  }

  const auto xs = shard_x(h, x, xb);
  for (Impl impl : {Impl::kScalar, Impl::kSimd}) {
    aligned_vector<double> y(static_cast<std::size_t>(a.rows()), -1.0);
    run_as_rank(h, xs, y.data(), 4, ExecBackend::kTasks, impl);
    expect_vectors_near(y.data(), yref.data(), a.rows(), "halo_dec split");
  }
}

TEST(HaloDecFormat, RankExecutorsMatchSerialOnEdgeSplits) {
  // Small-integer values and x make every summation order exact, so the
  // split's local-then-halo order must reproduce serial CSR of the same
  // rows bit for bit: a lost, doubled or misrouted entry, or a row the
  // local executor did not zero-fill, changes the result.
  const auto int_matrix = [](index_t n, index_t m, bool empty_rows,
                             std::uint64_t seed) {
    Coo<double> coo(n, m);
    Xoshiro256 rng(seed);
    for (index_t i = 0; i < n; ++i) {
      if (empty_rows && (i % 3 == 0 || i == n - 1)) continue;
      for (index_t j = 0; j < m; ++j)
        if (rng.uniform() < 0.2)
          coo.add(i, j, static_cast<double>(rng() % 9) - 4.0);
    }
    return Csr<double>::from_coo(std::move(coo));
  };
  const Csr<double> matrices[] = {int_matrix(37, 37, false, 61),
                                  int_matrix(29, 41, true, 62)};
  for (const Csr<double>& a : matrices) {
    const index_t n = a.rows(), m = a.cols();
    aligned_vector<double> x(static_cast<std::size_t>(m));
    Xoshiro256 rng(63);
    for (double& v : x) v = static_cast<double>(rng() % 7) - 3.0;
    const std::pair<index_t, index_t> owned[] = {
        {0, 0}, {0, m}, {m, m}, {m / 3, 2 * m / 3}};
    const std::pair<index_t, index_t> row_ranges[] = {
        {n / 2, n / 2}, {n / 2, n / 2 + 1}, {n - 7, n}, {0, n}};
    for (Impl impl : {Impl::kScalar, Impl::kSimd}) {
      aligned_vector<double> yfull(static_cast<std::size_t>(n), 0.0);
      FormatOps<Csr<double>>::spmv_add(a, x.data(), yfull.data(), impl);
      for (const auto& [xb, xe] : owned) {
        for (const auto& [r0, r1] : row_ranges) {
          const HaloDec<double> h = HaloDec<double>::split(a, r0, r1, xb, xe);
          ASSERT_EQ(h.rows(), r1 - r0);
          const auto xs = shard_x(h, x, xb);
          for (int threads : {1, 2, 4}) {
            for (ExecBackend schedule :
                 {ExecBackend::kBulk, ExecBackend::kTasks}) {
              aligned_vector<double> y(static_cast<std::size_t>(r1 - r0),
                                       99.0);
              run_as_rank(h, xs, y.data(), threads, schedule, impl);
              for (index_t i = 0; i < r1 - r0; ++i)
                ASSERT_EQ(y[static_cast<std::size_t>(i)],
                          yfull[static_cast<std::size_t>(r0 + i)])
                    << "owned [" << xb << "," << xe << ") rows [" << r0
                    << "," << r1 << ") row " << i << " threads " << threads
                    << " " << backend_name(schedule);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Multi-process parity.

/// Reference for one rank, same decomposition and same executors the
/// forked rank uses (stealing ThreadedSpmv local pass + serial halo
/// pass), so
/// the comparison is bitwise.
aligned_vector<double> rank_reference(const Csr<double>& a,
                                      const RankShard& sh,
                                      const aligned_vector<double>& x,
                                      int threads, Impl impl) {
  const HaloDec<double> h = HaloDec<double>::split(a, sh.row_begin,
                                                   sh.row_end, sh.x_begin,
                                                   sh.x_end);
  aligned_vector<double> y(static_cast<std::size_t>(h.rows()));
  run_as_rank(h, shard_x(h, x, sh.x_begin), y.data(), threads,
              ExecBackend::kTasks, impl);
  return y;
}

void check_dist_parity(const Csr<double>& a, int ranks, Impl impl,
                       int threads, int iterations) {
  const auto x = random_x<double>(a.cols(), 23);
  aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
  spmv(a, x.data(), yref.data());

  DistOptions opt;
  opt.ranks = ranks;
  opt.impl = impl;
  opt.threads_per_rank = threads;
  DistSpmv d(a, opt);

  aligned_vector<double> y_overlap(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y_overlap.data(), iterations);
  ASSERT_EQ(d.last_stats().size(), static_cast<std::size_t>(ranks));

  d.set_mode(DistMode::kNaive);
  aligned_vector<double> y_naive(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y_naive.data(), iterations);

  // Both modes run the identical compute sequence — bitwise equal.
  for (index_t i = 0; i < a.rows(); ++i)
    ASSERT_EQ(y_overlap[static_cast<std::size_t>(i)],
              y_naive[static_cast<std::size_t>(i)])
        << "overlap/naive diverge at row " << i;

  // Bitwise vs the same decomposition executed in this process.
  for (int r = 0; r < ranks; ++r) {
    const RankShard& sh = d.plan().shards[static_cast<std::size_t>(r)];
    const auto yr = rank_reference(a, sh, x, threads, impl);
    for (index_t i = 0; i < sh.rows(); ++i)
      ASSERT_EQ(y_overlap[static_cast<std::size_t>(sh.row_begin + i)],
                yr[static_cast<std::size_t>(i)])
          << "rank " << r << " row " << i << " (ranks=" << ranks << ")";
  }

  // Tolerance vs plain serial CSR (the column split reorders sums).
  expect_vectors_near(y_overlap.data(), yref.data(), a.rows(),
                      "dist vs serial");
}

TEST(DistSpmv, MatchesSingleProcessAcrossRanksAndImpls) {
  const Csr<double> a = test_matrix(96, 96, 0.08, 9);
  for (int ranks : {1, 2, 4}) check_dist_parity(a, ranks, Impl::kScalar, 1, 3);
  check_dist_parity(a, 4, Impl::kSimd, 1, 2);
}

TEST(DistSpmv, SkewedAndRectangularMatrices) {
  check_dist_parity(skewed_matrix(80, 17), 4, Impl::kScalar, 2, 2);
  check_dist_parity(test_matrix(70, 40, 0.1, 31), 3, Impl::kScalar, 1, 2);
}

TEST(DistSpmv, SerialLocalPassWhenThreadsZero) {
  check_dist_parity(test_matrix(50, 50, 0.1, 13), 2, Impl::kScalar, 0, 2);
}

TEST(DistSpmv, StatsAccountForHaloTraffic) {
  const Csr<double> a = test_matrix(64, 64, 0.15, 19);
  DistOptions opt;
  opt.ranks = 4;
  DistSpmv d(a, opt);
  const auto x = random_x<double>(a.cols(), 3);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  const int iters = 3;
  d.run(x.data(), y.data(), iters);

  const auto costs = d.rank_costs();
  for (int r = 0; r < opt.ranks; ++r) {
    const auto& st = d.last_stats()[static_cast<std::size_t>(r)];
    const auto& c = costs[static_cast<std::size_t>(r)];
    EXPECT_EQ(st.iterations, static_cast<std::uint32_t>(iters));
    EXPECT_EQ(st.msgs_sent,
              static_cast<std::uint64_t>(c.msgs_sent) * iters);
    EXPECT_EQ(st.msgs_recv,
              static_cast<std::uint64_t>(c.msgs_recv) * iters);
    // Wire bytes include the frame/message headers on top of the raw
    // halo doubles the model counts.
    EXPECT_GE(st.bytes_sent, static_cast<std::uint64_t>(c.bytes_sent) * iters);
    EXPECT_GE(st.bytes_recv, static_cast<std::uint64_t>(c.bytes_recv) * iters);
    EXPECT_GT(st.total_seconds, 0.0);
  }
}

TEST(DistSpmvFault, KilledRankSurfacesTypedError) {
  const Csr<double> a = test_matrix(48, 48, 0.15, 29);
  DistOptions opt;
  opt.ranks = 2;
  opt.timeout_seconds = 10.0;
  DistSpmv d(a, opt);
  const auto x = random_x<double>(a.cols(), 2);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.run(x.data(), y.data());  // healthy first

  d.kill_rank(1);
  // The survivor sees EOF mid-exchange (io_error via its kError reply)
  // or the driver reads EOF from the dead rank's control channel.
  EXPECT_THROW(d.run(x.data(), y.data()), error);
}

TEST(DistSpmvFault, FailedRunLeavesNoStaleReply) {
  // An unsupervised run that fails must still read every rank's reply:
  // one left unread would be returned as the next run's result.
  const Csr<double> a = test_matrix(64, 64, 0.15, 29);
  DistOptions opt;
  opt.ranks = 2;
  opt.timeout_seconds = 10.0;
  const auto x_fault = random_x<double>(a.cols(), 2);
  const auto x_next = random_x<double>(a.cols(), 3);
  const std::size_t rows = static_cast<std::size_t>(a.rows());
  aligned_vector<double> want(rows, 0.0), y(rows, 0.0);
  {
    DistSpmv clean(a, opt);
    clean.run(x_next.data(), want.data());
  }
  {
    // Rank 0 rejects rank 1's corrupt halo frame while rank 1 finishes
    // its run and replies; that reply belongs to the failed run.
    DistSpmv d(a, opt);
    FaultMsg f;
    f.kind = FaultKind::kCorruptHaloSend;
    f.at_iteration = 0;
    d.inject_fault(1, f);
    EXPECT_THROW(d.run(x_fault.data(), y.data()), parse_error);
    d.run(x_next.data(), y.data());
    expect_same_bits(y, want, "run after a corrupt halo frame");
  }
  {
    // Rank 1 stalls past rank 0's wire timeout and past the collect
    // grace (1.5·T + 0.5 s = 2 s): rank 0 reports a typed timeout, rank 1
    // is killed, and nothing the stall leaves behind may pass as a result.
    opt.timeout_seconds = 1.0;
    DistSpmv d(a, opt);
    FaultMsg f;
    f.kind = FaultKind::kStallAtIteration;
    f.at_iteration = 0;
    f.seconds = 3.0 * opt.timeout_seconds;
    d.inject_fault(1, f);
    EXPECT_THROW(d.run(x_fault.data(), y.data()), timeout_error);
    for (int k = 0; k < 3; ++k)
      EXPECT_THROW(d.run(x_next.data(), y.data()), error) << "later run " << k;
  }
}

TEST(DistSpmvFault, StalledRanksShareOneCollectDeadline) {
  // Ranks 1 and 2 stall 4·T. The collect grace runs from the start of
  // the collect for all ranks, so the failed run ends one grace in, not
  // one grace per stalled rank read in turn.
  const Csr<double> a = test_matrix(96, 96, 0.15, 31);
  DistOptions opt;
  opt.ranks = 3;
  opt.timeout_seconds = 1.0;
  const double grace = 1.5 * opt.timeout_seconds + 0.5;
  const auto x = random_x<double>(a.cols(), 4);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  DistSpmv d(a, opt);
  for (int r : {1, 2}) {
    FaultMsg f;
    f.kind = FaultKind::kStallAtIteration;
    f.at_iteration = 0;
    f.seconds = 4.0 * opt.timeout_seconds;
    d.inject_fault(r, f);
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(d.run(x.data(), y.data()), timeout_error);
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(took, grace + 0.5);
}

TEST(DistSpmvFault, UnsupervisedRunHealsAfterStallThatKilledNoRank) {
  // Rank 1 stalls past rank 0's wire timeout T but replies inside the
  // collect grace, so no rank is killed; its halo frame reaches rank 0
  // after rank 0 gave up on it. The failed run drains that frame, so
  // later runs must not read it as a stale-epoch frame.
  const Csr<double> a = test_matrix(64, 64, 0.15, 33);
  DistOptions opt;
  opt.ranks = 2;
  opt.timeout_seconds = 1.0;
  const auto x_fault = random_x<double>(a.cols(), 5);
  const auto x_next = random_x<double>(a.cols(), 6);
  const std::size_t rows = static_cast<std::size_t>(a.rows());
  aligned_vector<double> want(rows, 0.0), y(rows, 0.0);
  {
    DistSpmv clean(a, opt);
    clean.run(x_next.data(), want.data());
  }
  DistSpmv d(a, opt);
  FaultMsg f;
  f.kind = FaultKind::kStallAtIteration;
  f.at_iteration = 0;
  f.seconds = 1.4 * opt.timeout_seconds;  // between T and the 2 s grace
  d.inject_fault(1, f);
  EXPECT_THROW(d.run(x_fault.data(), y.data()), timeout_error);
  for (int k = 0; k < 3; ++k) {
    std::fill(y.begin(), y.end(), 0.0);
    d.run(x_next.data(), y.data());
    expect_same_bits(y, want, "run " + std::to_string(k) + " after the stall");
  }
}

/// Open descriptors of process `pid` ("self" for this one, not counting
/// the directory handle the count itself opens); -1 when unreadable.
int count_fds(const std::string& pid) {
  DIR* dir = ::opendir(("/proc/" + pid + "/fd").c_str());
  if (!dir) return -1;
  const std::string own = pid == "self" ? std::to_string(::dirfd(dir)) : "";
  int n = 0;
  while (const dirent* e = ::readdir(dir))
    if (e->d_name[0] != '.' && e->d_name != own) ++n;
  ::closedir(dir);
  return n;
}

/// Pids of the processes this thread forked, or nullopt when the kernel
/// does not expose /proc/<pid>/task/<tid>/children.
std::optional<std::vector<std::string>> child_pids() {
  const long tid = ::syscall(SYS_gettid);
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/children");
  if (!in) return std::nullopt;
  std::vector<std::string> pids;
  for (std::string p; in >> p;) pids.push_back(p);
  return pids;
}

TEST(DistSpmv, EveryRankHoldsOnlyItsOwnChannels) {
  // A rank that kept another rank's control end would hide that rank's
  // EOF from the driver; one that kept a foreign data end would hide a
  // dead peer from its neighbours. Every rank must hold what it
  // inherited from this process, its control end and one data end per
  // peer — after construction, after a respawn and after a re-shard.
  if (!child_pids()) GTEST_SKIP() << "/proc/<pid>/task/<tid>/children absent";
  const Csr<double> a = test_matrix(64, 64, 0.15, 41);
  const int inherited = count_fds("self");
  ASSERT_GT(inherited, 0);

  DistOptions opt;
  opt.ranks = 4;
  opt.timeout_seconds = 10.0;
  opt.supervise.enabled = true;
  opt.supervise.max_respawns = 1;
  DistSpmv d(a, opt);
  auto expect_ranks_hold = [&](std::size_t ranks, const char* when) {
    const auto pids = child_pids();
    ASSERT_TRUE(pids.has_value());
    ASSERT_EQ(pids->size(), ranks) << when;
    for (const std::string& pid : *pids)
      EXPECT_EQ(count_fds(pid), inherited + static_cast<int>(ranks))
          << when << ", rank pid " << pid;
  };
  expect_ranks_hold(4, "after construction");
  const int driver_fds = count_fds("self");
  EXPECT_EQ(driver_fds, inherited + 4);  // one control end per rank

  const auto x = random_x<double>(a.cols(), 5);
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  d.kill_rank(1);
  d.kill_rank(2);
  d.run(x.data(), y.data(), 2);
  ASSERT_EQ(d.outcome(), DistOutcome::kRecovered);
  expect_ranks_hold(4, "after respawning ranks 1 and 2");
  EXPECT_EQ(count_fds("self"), driver_fds);

  // Rank 3 exits in every round, so the second failure re-shards.
  FaultMsg f;
  f.kind = FaultKind::kExitAtIteration;
  f.at_iteration = 0;
  d.inject_fault(3, f, /*persistent=*/true);
  d.run(x.data(), y.data(), 2);
  ASSERT_EQ(d.outcome(), DistOutcome::kResharded);
  ASSERT_EQ(d.ranks(), 3);
  expect_ranks_hold(3, "after re-sharding to 3 ranks");
  EXPECT_EQ(count_fds("self"), inherited + 3);
}

// ---------------------------------------------------------------------
// Wire decoder fuzzing.

using testing::binary_corruptions;

TEST(DistMessages, CorruptedPayloadsFailTyped) {
  const Csr<double> a = test_matrix(20, 20, 0.2, 77);
  const ShardPlan plan = plan_shards(a, 2);

  dist::ShardMsg shard;
  shard.rank = 0;
  shard.ranks = 2;
  shard.row_begin = plan.shards[0].row_begin;
  shard.row_end = plan.shards[0].row_end;
  shard.x_begin = plan.shards[0].x_begin;
  shard.x_end = plan.shards[0].x_end;
  shard.cols = a.cols();
  shard.halo_seg = plan.shards[0].halo_seg;
  shard.send_cols = plan.shards[0].send_cols;
  const index_t nz1 = a.row_ptr()[shard.row_end];
  shard.row_ptr.assign(a.row_ptr().begin(),
                       a.row_ptr().begin() + shard.row_end + 1);
  shard.col_ind.assign(a.col_ind().begin(), a.col_ind().begin() + nz1);
  shard.val.assign(a.val().begin(), a.val().begin() + nz1);

  dist::RunMsg run;
  run.iterations = 3;
  run.x.assign(static_cast<std::size_t>(shard.x_end - shard.x_begin), 1.5);

  dist::DoneMsg done;
  done.y.assign(static_cast<std::size_t>(shard.rows()), 2.0);
  done.stats.iterations = 3;

  dist::HaloMsg halo;
  halo.from = 1;
  halo.iter = 0;
  halo.x = {1.0, 2.0, 3.0};

  expect_typed_errors_only(binary_corruptions(shard.encode()),
                           [](const std::string& s) { dist::ShardMsg::decode(s); },
                           "ShardMsg");
  expect_typed_errors_only(binary_corruptions(run.encode()),
                           [](const std::string& s) { dist::RunMsg::decode(s); },
                           "RunMsg");
  expect_typed_errors_only(binary_corruptions(done.encode()),
                           [](const std::string& s) { dist::DoneMsg::decode(s); },
                           "DoneMsg");
  expect_typed_errors_only(binary_corruptions(halo.encode()),
                           [](const std::string& s) { dist::HaloMsg::decode(s); },
                           "HaloMsg");
}

TEST(DistMessages, RoundTrip) {
  dist::RunMsg run;
  run.mode = DistMode::kNaive;
  run.impl = 1;
  run.iterations = 7;
  run.epoch = 4;
  run.first_iteration = 12;
  run.progress_every = 5;
  run.x = {0.5, -1.25, 3.0};
  const dist::RunMsg back = dist::RunMsg::decode(run.encode());
  EXPECT_EQ(back.mode, DistMode::kNaive);
  EXPECT_EQ(back.impl, 1);
  EXPECT_EQ(back.iterations, 7u);
  EXPECT_EQ(back.epoch, 4u);
  EXPECT_EQ(back.first_iteration, 12u);
  EXPECT_EQ(back.progress_every, 5u);
  EXPECT_EQ(back.x, run.x);

  dist::HaloMsg h;
  h.from = 3;
  h.epoch = 2;
  h.iter = 9;
  h.x = {4.0, 5.0};
  const dist::HaloMsg hb = dist::HaloMsg::decode(h.encode());
  EXPECT_EQ(hb.from, 3u);
  EXPECT_EQ(hb.epoch, 2u);
  EXPECT_EQ(hb.iter, 9u);
  EXPECT_EQ(hb.x, h.x);

  dist::FaultMsg f;
  f.kind = dist::FaultKind::kStallAtIteration;
  f.at_iteration = 6;
  f.seconds = 1.5;
  const dist::FaultMsg fb = dist::FaultMsg::decode(f.encode());
  EXPECT_EQ(fb.kind, dist::FaultKind::kStallAtIteration);
  EXPECT_EQ(fb.at_iteration, 6u);
  EXPECT_DOUBLE_EQ(fb.seconds, 1.5);
}

// ---------------------------------------------------------------------
// In-process halo exchange (the TSan target: two exchange threads over a
// socketpair, no fork).

TEST(DistComm, HaloExchangeInProcessThreads) {
  // Rank 0 owns x[0,4) and needs global cols {5,7}; rank 1 owns x[4,8)
  // and needs {0}. ranks = 2.
  RankShard s0;
  s0.row_begin = 0;
  s0.row_end = 4;
  s0.x_begin = 0;
  s0.x_end = 4;
  s0.halo_cols = {5, 7};
  s0.halo_seg = {0, 0, 2};
  s0.send_cols = {{}, {0}};  // rank 1's halo {0} → owned offset 0

  RankShard s1;
  s1.row_begin = 4;
  s1.row_end = 8;
  s1.x_begin = 4;
  s1.x_end = 8;
  s1.halo_cols = {0};
  s1.halo_seg = {0, 1, 1};
  s1.send_cols = {{1, 3}, {}};  // rank 0's halo {5,7} → offsets {1,3}

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::WireLimits limits;
  limits.read_timeout_seconds = 10.0;

  const double x0[4] = {10, 11, 12, 13};
  const double x1[4] = {20, 21, 22, 23};
  double halo0[2] = {0, 0};
  double halo1[1] = {0};

  const int iters = 4;
  std::thread peer([&] {
    dist::HaloExchange ex(s1, 1, {fds[1], -1}, limits);
    for (int it = 0; it < iters; ++it) {
      ex.start(x1, halo1, static_cast<std::uint32_t>(it));
      ex.finish();
    }
  });
  {
    dist::HaloExchange ex(s0, 0, {-1, fds[0]}, limits);
    for (int it = 0; it < iters; ++it) {
      ex.start(x0, halo0, static_cast<std::uint32_t>(it));
      ex.finish();
    }
    EXPECT_EQ(ex.totals().msgs_sent, static_cast<std::uint64_t>(iters));
    EXPECT_EQ(ex.totals().msgs_recv, static_cast<std::uint64_t>(iters));
  }
  peer.join();

  EXPECT_EQ(halo0[0], 21.0);  // global col 5 = x1[1]
  EXPECT_EQ(halo0[1], 23.0);  // global col 7 = x1[3]
  EXPECT_EQ(halo1[0], 10.0);  // global col 0 = x0[0]
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(DistComm, PeerEofIsTypedIoError) {
  RankShard s0;
  s0.x_begin = 0;
  s0.x_end = 2;
  s0.halo_cols = {2};
  s0.halo_seg = {0, 0, 1};
  s0.send_cols = {{}, {}};

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);  // peer "dies" immediately
  serve::WireLimits limits;
  limits.read_timeout_seconds = 5.0;

  const double x0[2] = {1, 2};
  double halo0[1] = {0};
  dist::HaloExchange ex(s0, 0, {-1, fds[0]}, limits);
  ex.start(x0, halo0, 0);
  EXPECT_THROW(ex.finish(), io_error);
  ::close(fds[0]);
}

// ---------------------------------------------------------------------
// Communication model + micro-benchmark.

MachineProfile comm_profile(double alpha, double beta, double mem_bw) {
  MachineProfile p;
  p.comm_alpha_seconds = alpha;
  p.comm_beta_bps = beta;
  p.bandwidth_bps = mem_bw;
  return p;
}

TEST(DistModel, TCommIsAffineAndGuarded) {
  const MachineProfile p = comm_profile(1e-5, 1e9, 2e10);
  EXPECT_DOUBLE_EQ(t_comm(p, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t_comm(p, 0, 2), 2e-5);
  EXPECT_DOUBLE_EQ(t_comm(p, 1e9, 1), 1e-5 + 1.0);
  MachineProfile unprofiled;
  unprofiled.bandwidth_bps = 2e10;
  EXPECT_THROW(t_comm(unprofiled, 100, 1), invalid_argument_error);
}

TEST(DistModel, SpareCoresHideTheWholeWireCost) {
  // 4 ranks on a 16-core node: the exchange threads get their own
  // cores, so overlap hides all of t_comm under the local pass and is
  // never predicted worse than naive.
  const MachineProfile p = comm_profile(5e-5, 5e8, 2e10);
  std::vector<DistRankCost> ranks(4);
  for (auto& c : ranks) {
    c.local_ws_bytes = 8u << 20;
    c.halo_ws_bytes = 1u << 20;
    c.bytes_sent = c.bytes_recv = 4u << 20;  // heavy comm, similar compute
    c.msgs_sent = c.msgs_recv = 3;
  }
  const double naive =
      predict_distributed(p, ranks, DistMode::kNaive, /*cores=*/16);
  const double overlap =
      predict_distributed(p, ranks, DistMode::kOverlap, /*cores=*/16);
  EXPECT_GT(naive, 0.0);
  EXPECT_LE(overlap, naive);
  EXPECT_EQ(choose_dist_mode(p, ranks, /*cores=*/16), DistMode::kOverlap);
}

TEST(DistModel, OversubscribedCopiesFavourNaive) {
  // The same bandwidth-heavy plan on a node with no spare cores: the
  // halo memcpy cannot hide (it steals compute cycles and thrashes the
  // cache), so naive's serial-but-undisturbed exchange is predicted
  // faster — while the blocking α·msgs part still hides, so a
  // latency-dominated plan flips the choice back to overlap.
  const MachineProfile p = comm_profile(5e-5, 5e8, 2e10);
  std::vector<DistRankCost> ranks(4);
  for (auto& c : ranks) {
    c.local_ws_bytes = 8u << 20;
    c.halo_ws_bytes = 1u << 20;
    c.bytes_sent = c.bytes_recv = 4u << 20;  // bandwidth-dominated comm
    c.msgs_sent = c.msgs_recv = 3;
  }
  const double naive =
      predict_distributed(p, ranks, DistMode::kNaive, /*cores=*/4);
  const double overlap =
      predict_distributed(p, ranks, DistMode::kOverlap, /*cores=*/4);
  EXPECT_GT(overlap, naive);
  EXPECT_EQ(choose_dist_mode(p, ranks, /*cores=*/4), DistMode::kNaive);

  // Latency-dominated: big α, a few bytes. Hiding α·msgs is pure win
  // even with zero spare cores.
  for (auto& c : ranks) {
    c.bytes_sent = c.bytes_recv = 64;
    c.msgs_sent = c.msgs_recv = 4;
  }
  EXPECT_EQ(choose_dist_mode(p, ranks, /*cores=*/4), DistMode::kOverlap);
}

TEST(DistModel, CommFreePlanTiesToNaive) {
  // A block-diagonal plan (no halo traffic at all) predicts identical
  // times for both modes; the tie keeps the serialised exchange.
  const MachineProfile p = comm_profile(1e-6, 5e9, 2e10);
  std::vector<DistRankCost> ranks(4);
  for (auto& c : ranks) c.local_ws_bytes = 8u << 20;
  EXPECT_DOUBLE_EQ(predict_distributed(p, ranks, DistMode::kNaive, 4),
                   predict_distributed(p, ranks, DistMode::kOverlap, 4));
  EXPECT_EQ(choose_dist_mode(p, ranks, /*cores=*/4), DistMode::kNaive);
}

TEST(DistModel, ModeNamesRoundTrip) {
  EXPECT_STREQ(dist_mode_name(DistMode::kOverlap), "overlap");
  EXPECT_STREQ(dist_mode_name(DistMode::kNaive), "naive");
  EXPECT_EQ(parse_dist_mode("overlap"), DistMode::kOverlap);
  EXPECT_EQ(parse_dist_mode("naive"), DistMode::kNaive);
  EXPECT_THROW(parse_dist_mode("bogus"), invalid_argument_error);
}

TEST(CommBench, QuickProfileIsPlausible) {
  const CommProfile p = profile_comm(/*quick=*/true);
  EXPECT_GT(p.alpha_seconds, 0.0);
  EXPECT_LT(p.alpha_seconds, 0.01);  // a local socketpair RTT, not a WAN
  EXPECT_GT(p.beta_bps, 1e6);
}

TEST(CommBench, ProfileJsonRoundTripsCommFields) {
  MachineProfile p;
  p.comm_alpha_seconds = 3e-6;
  p.comm_beta_bps = 4.5e9;
  const MachineProfile back = MachineProfile::from_json(p.to_json());
  EXPECT_DOUBLE_EQ(back.comm_alpha_seconds, 3e-6);
  EXPECT_DOUBLE_EQ(back.comm_beta_bps, 4.5e9);
}

}  // namespace
}  // namespace bspmv
