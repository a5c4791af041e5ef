// Edge cases for the §V-A nnz-balanced partitioner: empty matrices, more
// threads than row granules, single pathologically heavy rows — plus the
// structural invariants every bounds vector must satisfy (monotone,
// starts at 0, ends at n) and the part_weight_sums companion the
// observability hooks report as per-thread load.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/dist/shard_plan.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "src/parallel/partition.hpp"
#include "src/util/errors.hpp"
#include "tests/test_helpers.hpp"

using namespace bspmv;

namespace {

/// Assert the structural contract of balanced_partition's result:
/// parts+1 boundaries, first 0, last n, non-decreasing — so the ranges
/// are valid, disjoint, and cover [0, n) exactly.
void expect_valid_bounds(const std::vector<index_t>& bounds, int parts,
                         std::size_t n) {
  ASSERT_EQ(bounds.size(), static_cast<std::size_t>(parts) + 1);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), static_cast<index_t>(n));
  for (std::size_t p = 0; p + 1 < bounds.size(); ++p)
    EXPECT_LE(bounds[p], bounds[p + 1]) << "bounds not monotone at " << p;
}

TEST(PartitionEdges, EmptyWeights) {
  const std::vector<std::size_t> w;
  for (int parts : {1, 2, 8}) {
    const auto bounds = balanced_partition(w, parts);
    expect_valid_bounds(bounds, parts, 0);
    const auto sums = part_weight_sums(w, bounds);
    for (std::size_t s : sums) EXPECT_EQ(s, 0u);
  }
}

TEST(PartitionEdges, MoreThreadsThanRows) {
  const std::vector<std::size_t> w = {5, 3, 7};  // 3 granules, 8 threads
  const auto bounds = balanced_partition(w, 8);
  expect_valid_bounds(bounds, 8, w.size());
  // Every granule is assigned exactly once; surplus parts are empty.
  const auto sums = part_weight_sums(w, bounds);
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), std::size_t{0}), 15u);
  int non_empty = 0;
  for (std::size_t s : sums) non_empty += s > 0 ? 1 : 0;
  EXPECT_LE(non_empty, 3);
}

TEST(PartitionEdges, SingleHeavyRow) {
  // One row dominates: it must land in exactly one part and the cuts
  // around it must stay valid.
  std::vector<std::size_t> w(100, 1);
  w[40] = 100000;
  const auto bounds = balanced_partition(w, 4);
  expect_valid_bounds(bounds, 4, w.size());
  const auto sums = part_weight_sums(w, bounds);
  EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), std::size_t{0}),
            100099u);
  int heavy_parts = 0;
  for (std::size_t s : sums) heavy_parts += s >= 100000 ? 1 : 0;
  EXPECT_EQ(heavy_parts, 1);
}

TEST(PartitionEdges, AllZeroWeights) {
  const std::vector<std::size_t> w(10, 0);
  const auto bounds = balanced_partition(w, 4);
  expect_valid_bounds(bounds, 4, w.size());
}

TEST(PartitionEdges, SingleGranule) {
  const std::vector<std::size_t> w = {42};
  for (int parts : {1, 2, 16}) {
    const auto bounds = balanced_partition(w, parts);
    expect_valid_bounds(bounds, parts, 1);
    const auto sums = part_weight_sums(w, bounds);
    EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), std::size_t{0}), 42u);
  }
}

TEST(PartitionEdges, InvalidArguments) {
  const std::vector<std::size_t> w = {1, 2, 3};
  EXPECT_THROW(balanced_partition(w, 0), invalid_argument_error);
  EXPECT_THROW(balanced_partition(w, -1), invalid_argument_error);
  const std::vector<index_t> too_short = {0};
  EXPECT_THROW(part_weight_sums(w, too_short), invalid_argument_error);
}

TEST(PartitionEdges, InvariantsAcrossSweep) {
  // Deterministic pseudo-random weights over many (n, parts) combinations:
  // the structural contract and weight conservation must always hold.
  Xoshiro256 rng(123);
  for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    std::vector<std::size_t> w(n);
    for (auto& x : w) x = static_cast<std::size_t>(rng.uniform() * 50.0);
    const std::size_t total = std::accumulate(w.begin(), w.end(),
                                              std::size_t{0});
    for (int parts : {1, 2, 3, 8, 64}) {
      const auto bounds = balanced_partition(w, parts);
      expect_valid_bounds(bounds, parts, n);
      const auto sums = part_weight_sums(w, bounds);
      EXPECT_EQ(std::accumulate(sums.begin(), sums.end(), std::size_t{0}),
                total)
          << "weight not conserved for n=" << n << " parts=" << parts;
    }
  }
}

TEST(PartitionEdges, PartWeightSumsMatchesManualSum) {
  const std::vector<std::size_t> w = {4, 0, 9, 1, 1, 6};
  const std::vector<index_t> bounds = {0, 2, 2, 5, 6};  // one empty part
  const auto sums = part_weight_sums(w, bounds);
  ASSERT_EQ(sums.size(), 4u);
  EXPECT_EQ(sums[0], 4u);
  EXPECT_EQ(sums[1], 0u);
  EXPECT_EQ(sums[2], 11u);
  EXPECT_EQ(sums[3], 6u);
}

// --------------------------- degenerate decompositions, both backends ----
//
// The same pathological shapes the partitioner tests cover above, pushed
// through a full SpMV under the static (kBulk) and the stealing (kTasks)
// schedule: both must produce the serial result bitwise no matter how
// empty or skewed the task decomposition is.

/// Serial reference, then both schedules at `threads`, bitwise compare.
void expect_both_backends_match_serial(const Csr<double>& a, int threads,
                                       const std::string& context) {
  const auto x =
      bspmv::testing::random_x<double>(a.cols(), 97);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  aligned_vector<double> ys(n, 0.0);
  spmv(a, x.data(), ys.data());

  aligned_vector<double> yb(n, -1.0);
  ThreadedSpmv<Csr<double>>(a, threads, ExecBackend::kBulk)
      .run(x.data(), yb.data());
  aligned_vector<double> yt(n, -1.0);
  ThreadedSpmv<Csr<double>>(a, threads, ExecBackend::kTasks)
      .run(x.data(), yt.data());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(yb[i], ys[i]) << context << " bulk row " << i;
    ASSERT_EQ(yt[i], ys[i]) << context << " tasks row " << i;
  }
}

TEST(PartitionEdges, EmptyPartitionsThroughBothBackends) {
  // 5 rows, most of them empty, 8 threads: nearly every part/task slice
  // is empty and both runners must treat them as no-ops.
  Coo<double> coo(5, 6);
  coo.add(2, 1, 3.0);
  coo.add(2, 5, -1.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  expect_both_backends_match_serial(a, 8, "mostly-empty 8 threads");
}

TEST(PartitionEdges, SingleUltraHeavyRowThroughBothBackends) {
  // One row carries ~all the weight: it cannot be split (a row is the
  // granule), so one part/task dominates and the rest idle or steal.
  Coo<double> coo(40, 200);
  for (index_t j = 0; j < 200; ++j) coo.add(7, j, 1.0 + j);
  for (index_t i = 0; i < 40; i += 5) coo.add(i, i, 2.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  for (int threads : {2, 4, 7})
    expect_both_backends_match_serial(
        a, threads, "heavy row, " + std::to_string(threads) + " threads");
}

TEST(PartitionEdges, MoreThreadsThanRowsThroughBothBackends) {
  Coo<double> coo(3, 10);
  coo.add(0, 0, 1.0);
  coo.add(1, 9, 2.0);
  coo.add(2, 4, 3.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  expect_both_backends_match_serial(a, 16, "3 rows 16 threads");
}

TEST(PartitionEdges, TaskDecompositionSkipsEmptySlices) {
  // The stealing schedule splits each home range into up to
  // kTasksPerThread slices; on a 5-row matrix almost all are empty and
  // must be dropped at build time, not submitted as zero-width tasks.
  Coo<double> coo(5, 5);
  coo.add(0, 0, 1.0);
  coo.add(4, 4, 1.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const ThreadedSpmv<Csr<double>> d(a, 4, ExecBackend::kTasks);
  EXPECT_LE(d.task_count(), 5u);  // never more tasks than granules
  EXPECT_GE(d.task_count(), 1u);
}

// ------------------------------- rank-level (shard plan) degenerates ----
//
// plan_shards reuses balanced_partition for its row cuts, so the same
// pathological shapes must also produce structurally valid *distributed*
// plans: monotone covering bounds, sorted disjoint halos, and send lists
// that exactly mirror the peers' halo segments — even when most shards
// are empty.

/// The structural contract of a shard plan, whatever the input shape:
/// bounds cover, nnz is conserved, halos are sorted / disjoint from the
/// owned x range and segmented consistently with x_bounds, and every
/// send list mirrors the destination's halo segment entry for entry.
void expect_valid_plan(const dist::ShardPlan& plan, const Csr<double>& a) {
  const int ranks = plan.ranks;
  ASSERT_EQ(plan.shards.size(), static_cast<std::size_t>(ranks));
  expect_valid_bounds(plan.row_bounds, ranks,
                      static_cast<std::size_t>(a.rows()));
  expect_valid_bounds(plan.x_bounds, ranks,
                      static_cast<std::size_t>(a.cols()));
  std::size_t nnz_sum = 0;
  for (int r = 0; r < ranks; ++r) {
    const dist::RankShard& sh = plan.shards[static_cast<std::size_t>(r)];
    EXPECT_EQ(sh.row_begin, plan.row_bounds[static_cast<std::size_t>(r)]);
    EXPECT_EQ(sh.row_end, plan.row_bounds[static_cast<std::size_t>(r) + 1]);
    EXPECT_EQ(sh.nnz, sh.local_nnz + sh.halo_nnz);
    nnz_sum += sh.nnz;
    ASSERT_EQ(sh.halo_seg.size(), static_cast<std::size_t>(ranks) + 1);
    EXPECT_EQ(sh.halo_seg.back(),
              static_cast<index_t>(sh.halo_cols.size()));
    for (std::size_t k = 0; k < sh.halo_cols.size(); ++k) {
      const index_t c = sh.halo_cols[k];
      EXPECT_TRUE(c < sh.x_begin || c >= sh.x_end)
          << "halo col " << c << " inside owned x of rank " << r;
      if (k) {
        EXPECT_LT(sh.halo_cols[k - 1], c) << "halo not sorted, rank " << r;
      }
    }
    // Mirror symmetry: what r expects from p is exactly what p ships to r.
    ASSERT_EQ(sh.send_cols.size(), static_cast<std::size_t>(ranks));
    for (int p = 0; p < ranks; ++p) {
      const dist::RankShard& peer = plan.shards[static_cast<std::size_t>(p)];
      const auto s0 =
          static_cast<std::size_t>(peer.halo_seg[static_cast<std::size_t>(r)]);
      const auto s1 = static_cast<std::size_t>(
          peer.halo_seg[static_cast<std::size_t>(r) + 1]);
      const std::vector<index_t>& send =
          sh.send_cols[static_cast<std::size_t>(p)];
      ASSERT_EQ(send.size(), s1 - s0)
          << "send list " << r << "->" << p << " size mismatch";
      for (std::size_t k = 0; k < send.size(); ++k)
        EXPECT_EQ(send[k] + sh.x_begin, peer.halo_cols[s0 + k]);
    }
  }
  EXPECT_EQ(nnz_sum, a.nnz());
}

TEST(PartitionEdges, ShardPlanMoreRanksThanRows) {
  // 3 rows over 8 ranks on a 3x12 rectangle: at least 5 shards own no
  // rows, yet each still owns an x-column slice — so a row-empty shard
  // reads no halo but may still have to *send* owned x to the shards
  // whose rows reference its columns.
  Coo<double> coo(3, 12);
  coo.add(0, 11, 1.0);
  coo.add(1, 0, 2.0);
  coo.add(2, 6, 3.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const auto plan = dist::plan_shards(a, 8);
  expect_valid_plan(plan, a);
  int with_rows = 0;
  std::size_t sent_by_row_empty = 0;
  for (const auto& sh : plan.shards) {
    with_rows += sh.rows() > 0 ? 1 : 0;
    if (sh.rows() == 0) {
      EXPECT_EQ(sh.nnz, 0u);
      EXPECT_EQ(sh.halo_count(), 0u) << "no rows, nothing to read";
      sent_by_row_empty += sh.send_count();
    }
    if (sh.x_end == sh.x_begin) {
      EXPECT_EQ(sh.send_count(), 0u) << "no owned x, nothing to ship";
    }
  }
  EXPECT_LE(with_rows, 3);
  EXPECT_GT(sent_by_row_empty, 0u)
      << "row 1 reads col 0, owned by a shard with no rows";
}

TEST(PartitionEdges, ShardPlanZeroNnzShards) {
  // All the weight in the first and last row: the nnz balancer collapses
  // the weightless middle rows into a neighbour, leaving some shards
  // with empty row (and, square matrix, empty x) ranges. Those must
  // carry zero traffic, while the two dense boundary rows — landing in
  // different shards — must exchange each other's owned x.
  Coo<double> coo(64, 64);
  for (index_t j = 0; j < 64; ++j) {
    coo.add(0, j, 1.0);
    coo.add(63, j, 2.0);
  }
  const Csr<double> a = Csr<double>::from_coo(coo);
  const auto plan = dist::plan_shards(a, 4);
  expect_valid_plan(plan, a);
  int empty = 0;
  for (const auto& sh : plan.shards) {
    if (sh.nnz == 0) {
      ++empty;
      EXPECT_EQ(sh.halo_count(), 0u) << "nnz-free shard reads no halo";
      EXPECT_EQ(sh.send_count(), 0u) << "owns no x anyone reads";
    } else {
      EXPECT_GT(sh.halo_count(), 0u) << "dense row spans the full x";
      EXPECT_GT(sh.send_count(), 0u) << "the other dense row reads back";
    }
  }
  EXPECT_GE(empty, 1) << "192 nnz in 2 rows cannot fill 4 shards";
}

TEST(PartitionEdges, ShardPlanSingleRowMatrix) {
  // One row, every rank but its owner empty; the full x range belongs
  // to the owner of the cuts, so halos depend only on the x bounds.
  Coo<double> coo(1, 20);
  for (index_t j = 0; j < 20; j += 3) coo.add(0, j, 1.0 + j);
  const Csr<double> a = Csr<double>::from_coo(coo);
  for (int ranks : {1, 2, 5}) {
    const auto plan = dist::plan_shards(a, ranks);
    expect_valid_plan(plan, a);
    std::size_t nnz = 0;
    for (const auto& sh : plan.shards) nnz += sh.nnz;
    EXPECT_EQ(nnz, a.nnz());
  }
}

TEST(PartitionEdges, ShardPlanEmptyHaloOnBlockDiagonal) {
  // Block-diagonal with blocks aligned to the shard cuts: every column
  // a shard touches is owned, so all halo sets and send lists are empty
  // and the plan's model costs carry zero wire traffic.
  Coo<double> coo(40, 40);
  for (index_t b = 0; b < 4; ++b)
    for (index_t i = 0; i < 10; ++i)
      for (index_t j = 0; j < 10; ++j)
        coo.add(b * 10 + i, b * 10 + j, 1.0);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const auto plan = dist::plan_shards(a, 4);
  expect_valid_plan(plan, a);
  for (const auto& sh : plan.shards) {
    EXPECT_EQ(sh.halo_count(), 0u);
    EXPECT_EQ(sh.send_count(), 0u);
    EXPECT_EQ(sh.peer_count(), 0);
    EXPECT_EQ(sh.halo_nnz, 0u);
  }
  for (const auto& c : plan.rank_costs(sizeof(double))) {
    EXPECT_EQ(c.bytes_sent + c.bytes_recv, 0u);
    EXPECT_EQ(c.msgs_sent + c.msgs_recv, 0);
  }
}

TEST(PartitionEdges, ShardPlanEmptyMatrix) {
  const Csr<double> a = Csr<double>::from_coo(Coo<double>(0, 0));
  const auto plan = dist::plan_shards(a, 3);
  expect_valid_plan(plan, a);
  for (const auto& sh : plan.shards) {
    EXPECT_EQ(sh.rows(), 0);
    EXPECT_EQ(sh.nnz, 0u);
  }
}

TEST(PartitionEdges, BalanceQualityOnUniformWeights) {
  // With equal weights and n divisible by parts, the greedy prefix cuts
  // should produce a near-perfect split (each part within one granule of
  // the ideal share).
  const std::vector<std::size_t> w(64, 3);
  const auto bounds = balanced_partition(w, 8);
  expect_valid_bounds(bounds, 8, w.size());
  const auto sums = part_weight_sums(w, bounds);
  for (std::size_t s : sums) {
    EXPECT_GE(s, 3u * 7u);
    EXPECT_LE(s, 3u * 9u);
  }
}

}  // namespace
