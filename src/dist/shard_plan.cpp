#include "src/dist/shard_plan.hpp"

#include <algorithm>

#include "src/formats/format_ops.hpp"
#include "src/parallel/partition.hpp"
#include "src/util/macros.hpp"

namespace bspmv::dist {

std::size_t RankShard::send_count() const {
  std::size_t n = 0;
  for (const auto& s : send_cols) n += s.size();
  return n;
}

int RankShard::peer_count() const {
  int n = 0;
  for (std::size_t p = 0; p < send_cols.size(); ++p) {
    const bool sends = !send_cols[p].empty();
    const bool recvs =
        p + 1 < halo_seg.size() && halo_seg[p + 1] > halo_seg[p];
    if (sends || recvs) ++n;
  }
  return n;
}

template <class V>
ShardPlan plan_shards(const Csr<V>& a, int ranks) {
  BSPMV_CHECK_MSG(ranks >= 1 && ranks <= kMaxRanks,
                  "rank count must be in [1, " + std::to_string(kMaxRanks) +
                      "]");
  ShardPlan plan;
  plan.ranks = ranks;
  plan.rows = a.rows();
  plan.cols = a.cols();

  // Rows: the same nnz-balanced contiguous cuts the threaded drivers use.
  plan.row_bounds =
      balanced_partition(FormatOps<Csr<V>>::pass_weights(a), ranks);

  // Owned x: square matrices align the x cut with the row cut (the solver
  // case — each rank's y slice is next iteration's x slice, so alignment
  // makes the y->x handoff local). Rectangular matrices get an even
  // column split.
  if (a.rows() == a.cols()) {
    plan.x_bounds = plan.row_bounds;
  } else {
    plan.x_bounds.resize(static_cast<std::size_t>(ranks) + 1);
    for (int p = 0; p <= ranks; ++p)
      plan.x_bounds[static_cast<std::size_t>(p)] = static_cast<index_t>(
          static_cast<std::int64_t>(a.cols()) * p / ranks);
  }

  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  plan.shards.resize(static_cast<std::size_t>(ranks));

  for (int r = 0; r < ranks; ++r) {
    RankShard& sh = plan.shards[static_cast<std::size_t>(r)];
    sh.row_begin = plan.row_bounds[static_cast<std::size_t>(r)];
    sh.row_end = plan.row_bounds[static_cast<std::size_t>(r) + 1];
    sh.x_begin = plan.x_bounds[static_cast<std::size_t>(r)];
    sh.x_end = plan.x_bounds[static_cast<std::size_t>(r) + 1];

    // Collect the shard's external columns: sort + unique rather than a
    // cols-sized bitmap, so tiny shards of huge-width matrices stay cheap.
    std::vector<index_t> ext;
    const std::size_t nz0 = static_cast<std::size_t>(row_ptr[sh.row_begin]);
    const std::size_t nz1 = static_cast<std::size_t>(row_ptr[sh.row_end]);
    sh.nnz = nz1 - nz0;
    for (std::size_t k = nz0; k < nz1; ++k) {
      const index_t c = col_ind[k];
      if (c >= sh.x_begin && c < sh.x_end)
        ++sh.local_nnz;
      else
        ext.push_back(c);
    }
    sh.halo_nnz = sh.nnz - sh.local_nnz;
    std::sort(ext.begin(), ext.end());
    ext.erase(std::unique(ext.begin(), ext.end()), ext.end());
    sh.halo_cols = std::move(ext);

    // Segment the (sorted) halo by owning rank: entries for rank p are
    // exactly those in [x_bounds[p], x_bounds[p+1]).
    sh.halo_seg.resize(static_cast<std::size_t>(ranks) + 1);
    std::size_t i = 0;
    sh.halo_seg[0] = 0;
    for (int p = 0; p < ranks; ++p) {
      const index_t hi = plan.x_bounds[static_cast<std::size_t>(p) + 1];
      while (i < sh.halo_cols.size() && sh.halo_cols[i] < hi) ++i;
      sh.halo_seg[static_cast<std::size_t>(p) + 1] =
          static_cast<index_t>(i);
    }
    BSPMV_CHECK(i == sh.halo_cols.size());
    // A rank never halos its own columns.
    BSPMV_CHECK(sh.halo_seg[static_cast<std::size_t>(r) + 1] ==
                sh.halo_seg[static_cast<std::size_t>(r)]);
  }

  // Mirror the halo segments into send lists: what rank d needs from
  // rank r is what r must ship to d.
  for (int r = 0; r < ranks; ++r)
    plan.shards[static_cast<std::size_t>(r)].send_cols.resize(
        static_cast<std::size_t>(ranks));
  for (int d = 0; d < ranks; ++d) {
    const RankShard& dst = plan.shards[static_cast<std::size_t>(d)];
    for (int r = 0; r < ranks; ++r) {
      if (r == d) continue;
      RankShard& src = plan.shards[static_cast<std::size_t>(r)];
      const index_t s0 = dst.halo_seg[static_cast<std::size_t>(r)];
      const index_t s1 = dst.halo_seg[static_cast<std::size_t>(r) + 1];
      auto& out = src.send_cols[static_cast<std::size_t>(d)];
      out.reserve(static_cast<std::size_t>(s1 - s0));
      for (index_t k = s0; k < s1; ++k)
        out.push_back(dst.halo_cols[static_cast<std::size_t>(k)] -
                      src.x_begin);
    }
  }
  return plan;
}

std::vector<DistRankCost> ShardPlan::rank_costs(
    std::size_t value_bytes) const {
  std::vector<DistRankCost> costs(shards.size());
  for (std::size_t r = 0; r < shards.size(); ++r) {
    const RankShard& sh = shards[r];
    DistRankCost& c = costs[r];
    // Working sets mirror Csr::working_set_bytes for the two column-split
    // submatrices: row_ptr + col_ind + val, plus the vector slices each
    // pass streams (owned x and y for the local pass, the halo buffer
    // for the halo pass).
    const std::size_t nrows = static_cast<std::size_t>(sh.rows());
    c.local_ws_bytes = (nrows + 1) * sizeof(index_t) +
                       sh.local_nnz * (sizeof(index_t) + value_bytes) +
                       (static_cast<std::size_t>(sh.x_width()) + nrows) *
                           value_bytes;
    c.halo_ws_bytes =
        sh.halo_nnz == 0
            ? 0
            : (nrows + 1) * sizeof(index_t) +
                  sh.halo_nnz * (sizeof(index_t) + value_bytes) +
                  (sh.halo_count() + nrows) * value_bytes;
    c.bytes_sent = sh.send_count() * value_bytes;
    c.bytes_recv = sh.recv_count() * value_bytes;
    for (std::size_t p = 0; p < sh.send_cols.size(); ++p) {
      if (!sh.send_cols[p].empty()) ++c.msgs_sent;
      if (p + 1 < sh.halo_seg.size() && sh.halo_seg[p + 1] > sh.halo_seg[p])
        ++c.msgs_recv;
    }
  }
  return costs;
}

template ShardPlan plan_shards(const Csr<float>&, int);
template ShardPlan plan_shards(const Csr<double>&, int);

}  // namespace bspmv::dist
