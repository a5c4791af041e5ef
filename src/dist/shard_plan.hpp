// Row-shard plan for distributed (multi-process) SpMV.
//
// The matrix is split row-wise into `ranks` contiguous shards with
// near-equal nonzero counts (the same §V-A nnz balancing the threaded
// driver uses, via balanced_partition over CSR pass_weights). Each rank
// owns the matching slice of the input vector x; the columns a shard touches
// outside its own x slice form its *halo* — the only data that must move
// between ranks each iteration (Schubert/Hager/Wellein, arXiv 1101.0091).
//
// The plan records, per rank:
//   - the row range and owned x range,
//   - the sorted global halo column set, segmented by owning rank (so an
//     incoming halo message lands in one contiguous memcpy),
//   - the send list per peer (which owned x entries each peer's halo
//     needs), the exact mirror of the peers' halo segments.
//
// plan_shards is pure structure — no sockets, no processes — so the
// planner edge cases (ranks > rows, zero-nnz shards, single-row
// matrices, empty halos) are unit-testable next to the partitioner's
// (tests/test_partition_edges.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/models.hpp"
#include "src/formats/csr.hpp"

namespace bspmv::dist {

/// One rank's slice of the plan.
struct RankShard {
  index_t row_begin = 0, row_end = 0;  ///< owned rows [row_begin, row_end)
  index_t x_begin = 0, x_end = 0;      ///< owned x entries
  /// Global column ids this shard reads outside [x_begin, x_end),
  /// sorted ascending (== the compact halo index space, in order).
  std::vector<index_t> halo_cols;
  /// ranks+1 offsets into halo_cols: entries [halo_seg[p], halo_seg[p+1])
  /// are owned by rank p, so one kHalo frame from p fills one contiguous
  /// range of the halo buffer.
  std::vector<index_t> halo_seg;
  /// Per peer p: owned-x offsets (global col - x_begin) to ship to p,
  /// exactly mirroring p's halo segment for this rank.
  std::vector<std::vector<index_t>> send_cols;
  std::size_t nnz = 0;        ///< stored values in the shard
  std::size_t local_nnz = 0;  ///< values whose column is owned
  std::size_t halo_nnz = 0;   ///< values whose column is halo

  index_t rows() const { return row_end - row_begin; }
  index_t x_width() const { return x_end - x_begin; }
  std::size_t halo_count() const { return halo_cols.size(); }
  /// Halo doubles received (sum of segments) / sent (sum of send lists).
  std::size_t recv_count() const { return halo_cols.size(); }
  std::size_t send_count() const;
  /// Peers this rank exchanges any bytes with (send or recv).
  int peer_count() const;
};

struct ShardPlan {
  int ranks = 0;
  index_t rows = 0, cols = 0;
  std::vector<index_t> row_bounds;  ///< ranks+1 (balanced_partition cuts)
  std::vector<index_t> x_bounds;    ///< ranks+1 owned-x cuts
  std::vector<RankShard> shards;    ///< size ranks

  /// Per-rank model inputs (working sets + wire traffic) for
  /// predict_distributed; value_bytes = sizeof(V) of the run.
  std::vector<DistRankCost> rank_costs(std::size_t value_bytes) const;
};

/// Build the plan. Throws invalid_argument_error for ranks < 1 or
/// ranks > kMaxRanks. Degenerate inputs (empty matrices, more ranks than
/// rows, rows of zero nnz) produce valid plans with empty shards.
template <class V>
ShardPlan plan_shards(const Csr<V>& a, int ranks);

/// Socketpair-mesh fan-out limit (fd budget: ranks² data channels).
inline constexpr int kMaxRanks = 16;

extern template ShardPlan plan_shards(const Csr<float>&, int);
extern template ShardPlan plan_shards(const Csr<double>&, int);

}  // namespace bspmv::dist
