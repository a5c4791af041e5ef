// Band engine shared by the structural statistics (stats.cpp) and the
// BCSR/BCSD conversions, padded and decomposed (internal header).
//
// Both blockings group rows into aligned bands of height `band` (r for
// BCSR, b for BCSD) and map every nonzero within a band to a block key in
// [0, keys): the block column j/c for BCSR, the shifted diagonal start
// j - (i - band_start) + (b - 1) for BCSD. Blocks are the distinct keys of
// a band; a block is "full" when its key occurs `elems` times. Keys are
// counted in a dense array, so the counts do not depend on column order,
// and a duplicate column counts as often as it occurs.
//
// Both run as row-chunk tasks on the shared TaskPool (docs/tasking.md,
// "Set-up on the pool"). Every chunk bound is a multiple of kChunkRows =
// lcm(1..kMaxBlockElems) rows, so no band of any height up to
// kMaxBlockElems crosses a chunk edge, and the block counts of the whole
// are exactly the sums of the chunks'. Each pool slot works in scratch
// the calling thread allocates before the job and frees after it, so no
// pool thread allocates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "src/formats/block_shapes.hpp"
#include "src/formats/conversion_guard.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/parallel/task_pool.hpp"
#include "src/util/macros.hpp"

namespace bspmv::detail {

/// Rows per chunk quantum: lcm(1..8), a multiple of every band height.
inline constexpr std::size_t kChunkRows = 840;
static_assert(kMaxBlockElems == 8, "kChunkRows is lcm(1..kMaxBlockElems)");

/// About this many chunks per pool slot, so stealing can even out chunks
/// of unequal cost.
inline constexpr std::size_t kChunksPerSlot = 4;

/// The pool set-up work runs on: one slot per hardware thread.
inline std::shared_ptr<TaskPool> setup_pool() {
  return TaskPool::shared(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
}

/// Chunk bounds over the rows of `a` for `slots` pool slots: ascending,
/// 0 first and rows last, every interior bound a multiple of kChunkRows,
/// about kChunksPerSlot · slots chunks of balanced nonzero counts. Always
/// at least one chunk (an empty one when `a` has no rows).
template <class V>
std::vector<std::size_t> row_chunks(const Csr<V>& a, std::size_t slots) {
  const auto n = static_cast<std::size_t>(a.rows());
  const auto& row_ptr = a.row_ptr();
  const std::size_t target = std::max<std::size_t>(1, kChunksPerSlot * slots);
  const auto nnz = static_cast<std::size_t>(row_ptr[n]);
  std::vector<std::size_t> bounds{0};
  for (std::size_t k = 1; k < target; ++k) {
    // The first row whose nonzeros start at or past k/target of the total.
    const auto at = static_cast<index_t>(nnz * k / target);
    const auto row = static_cast<std::size_t>(
        std::lower_bound(row_ptr.begin(), row_ptr.begin() + n, at) -
        row_ptr.begin());
    const std::size_t bound = row / kChunkRows * kChunkRows;
    if (bound > bounds.back() && bound < n) bounds.push_back(bound);
  }
  bounds.push_back(n);
  return bounds;
}

/// The most nonzeros in any aligned band of `band` rows.
template <class V>
std::size_t widest_band(const Csr<V>& a, std::size_t band) {
  const auto n = static_cast<std::size_t>(a.rows());
  const auto& row_ptr = a.row_ptr();
  index_t widest = 0;
  for (std::size_t lo = 0; lo < n; lo += band)
    widest = std::max(widest, row_ptr[std::min(n, lo + band)] - row_ptr[lo]);
  return static_cast<std::size_t>(widest);
}

/// A pool job of `tasks` tasks split evenly into the home ranges of the
/// first `active` of `slots` slots, stealing when they are all active;
/// task t runs fn(t, slot).
template <class Fn>
class SlotJob final : public TaskPool::Job {
 public:
  SlotJob(std::size_t slots, std::size_t active, std::uint32_t tasks, Fn& fn)
      : home_(slots + 1), steal_(active == slots), fn_(fn) {
    for (std::size_t w = 0; w <= slots; ++w)
      home_[w] = static_cast<std::uint32_t>(tasks * std::min(w, active) /
                                            active);
  }
  std::span<const std::uint32_t> home() const override { return home_; }
  bool steal() const override { return steal_; }
  std::size_t run_task(std::uint32_t task, int slot) override {
    fn_(task, static_cast<std::size_t>(slot));
    return 1;
  }
  void finish(std::span<const TaskPool::WorkerLoad>) override {}

 private:
  std::vector<std::uint32_t> home_;
  bool steal_;
  Fn& fn_;
};

/// fn(t, slot) for every task t in [0, tasks), slot < `active`: on `pool`
/// (inline on the caller as slot 0 when it is busy), or in order on the
/// caller as slot 0 when `pool` is null. Slots index scratch the caller
/// allocated.
template <class Fn>
void run_slots(TaskPool* pool, std::size_t active, std::size_t tasks, Fn fn) {
  BSPMV_CHECK_MSG(tasks <= TaskCursor::kMaxTasks, "too many set-up tasks");
  if (pool == nullptr) {
    for (std::size_t t = 0; t < tasks; ++t)
      fn(static_cast<std::uint32_t>(t), 0);
    return;
  }
  BSPMV_DBG_ASSERT(active >= 1 &&
                   active <= static_cast<std::size_t>(pool->workers()));
  SlotJob<Fn> job(static_cast<std::size_t>(pool->workers()), active,
                  static_cast<std::uint32_t>(tasks), fn);
  pool->run(job);
}

/// Aligned r×c blocks; a block's key is its block column.
struct BcsrBlocking {
  explicit BcsrBlocking(BlockShape s)
      : band(s.r), c(static_cast<std::uint32_t>(s.c)),
        elems(static_cast<std::size_t>(s.elems())) {}
  int band;
  std::uint32_t c;
  std::size_t elems;

  std::size_t keys(index_t cols) const {
    return static_cast<std::size_t>(cols) / c + 1;
  }
  std::uint32_t key(index_t, index_t j) const {
    return static_cast<std::uint32_t>(j) / c;
  }
  index_t bcol(std::uint32_t key) const { return static_cast<index_t>(key); }
  std::size_t offset(index_t di, index_t j, std::uint32_t key) const {
    return static_cast<std::size_t>(di) * c +
           (static_cast<std::uint32_t>(j) - key * c);
  }
};

/// Aligned length-b diagonals; a diagonal's key is its start column
/// shifted by b - 1, so keys below a band's first-row diagonal stay >= 0.
struct BcsdBlocking {
  explicit BcsdBlocking(int b) : band(b), elems(static_cast<std::size_t>(b)) {}
  int band;
  std::size_t elems;

  std::size_t keys(index_t cols) const {
    return static_cast<std::size_t>(cols) + elems;
  }
  std::uint32_t key(index_t di, index_t j) const {
    return static_cast<std::uint32_t>(j) +
           static_cast<std::uint32_t>(band - 1 - di);
  }
  index_t bcol(std::uint32_t key) const {
    return static_cast<index_t>(key) - (band - 1);
  }
  std::size_t offset(index_t di, index_t, std::uint32_t) const {
    return static_cast<std::size_t>(di);
  }
};

/// Count the keys of every band in rows [lo, hi) (lo a multiple of the
/// band height; hi one too, or the row count) in `count`, key k at
/// count[k - base] (all zero, long enough for every key of these rows),
/// and call on_band(lo, hi, keys, n) for each band of rows [lo, hi):
/// keys[0, n) are its distinct keys in first-occurrence order and
/// count[key - base] their occurrences. on_band may permute keys[0, n)
/// and overwrite their counters, and must zero them before it returns
/// (the statistics fold that into the pass that reads them). `touched`
/// holds the keys: at least as long as the most nonzeros in a band.
template <class V, class Blocking, class BandFn>
void scan_bands(const Csr<V>& a, const Blocking& blk, std::size_t lo,
                std::size_t hi, std::span<std::uint32_t> count,
                std::uint32_t base, std::span<std::uint32_t> touched,
                BandFn on_band) {
  const auto band = static_cast<std::size_t>(blk.band);
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  BSPMV_DBG_ASSERT(lo % band == 0);
  for (std::size_t b0 = lo; b0 < hi; b0 += band) {
    const std::size_t b1 = std::min(hi, b0 + band);
    BSPMV_DBG_ASSERT(static_cast<std::size_t>(row_ptr[b1] - row_ptr[b0]) <=
                     touched.size());
    // Branch-free: every key is written, the end advances only on a
    // key's first occurrence in the band.
    std::size_t distinct = 0;
    for (std::size_t i = b0; i < b1; ++i)
      for (auto k = static_cast<std::size_t>(row_ptr[i]);
           k < static_cast<std::size_t>(row_ptr[i + 1]); ++k) {
        const std::uint32_t key =
            blk.key(static_cast<index_t>(i - b0), col_ind[k]);
        BSPMV_DBG_ASSERT(key >= base && key - base < count.size());
        touched[distinct] = key;
        distinct += count[key - base]++ == 0;
      }
    on_band(b0, b1, touched.data(), distinct);
  }
}

/// Convert `a` to the blocking `blk` in two passes, filling brow_ptr,
/// bcol_ind and bval, and return the number of distinct positions the
/// blocks hold. Without `remainder` every key is a block (padded layout);
/// with it only full blocks are stored and every other nonzero goes, in
/// input order, to *remainder and its row tag to *rem_tags (-DEC, §II-B).
/// Every pass runs one task per row chunk (row_chunks) on setup_pool(),
/// or on the caller when there is a single chunk:
///   1. Shape pass: each chunk's key range, widest band and widest row.
///      A chunk counts its keys relative to its lowest, so a slot's
///      counters span the widest chunk's keys, not every column.
///   2. Guard: charge the slots' key counters to ConversionGuard, then
///      allocate them. The slots' counters together stay within what one
///      array over every key takes, so chunks whose keys spread over most
///      columns run on fewer slots.
///   3. Size pass: per chunk, count each band's blocks into its brow_ptr
///      entry and the chunk's remainder nonzeros. The caller then
///      prefix-sums brow_ptr and the chunks' remainder offsets.
///   4. Guard: charge the output arrays, then allocate them.
///   5. Fill pass: per band, sort the block keys, let order(band_index,
///      keys, n) reorder them, write each key's slot into its counter and
///      scatter the values (a repeated column is summed into one value)
///      and the remainder entries with their tags at the chunk's offset.
/// Every band is filled by one task in input order, so the arrays are
/// the same whoever runs the tasks. `extra_index_bytes` are index arrays
/// the caller has already sized.
template <class V, class Blocking, class OrderFn>
std::size_t convert_bands(const Csr<V>& a, const Blocking& blk,
                          const char* format, std::size_t extra_index_bytes,
                          aligned_vector<index_t>& brow_ptr,
                          aligned_vector<index_t>& bcol_ind,
                          aligned_vector<V>& bval, Csr<V>* remainder,
                          aligned_vector<rem_tag_t>* rem_tags, OrderFn order) {
  BSPMV_DBG_ASSERT((remainder == nullptr) == (rem_tags == nullptr));
  const auto n = static_cast<std::size_t>(a.rows());
  const auto band = static_cast<std::size_t>(blk.band);
  const std::size_t elems = blk.elems;
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  const auto& val = a.val();

  // A single chunk runs on the caller and never touches the pool.
  std::shared_ptr<TaskPool> pool;
  std::vector<std::size_t> chunk = {0, n};
  if (n >= 2 * kChunkRows) {
    pool = setup_pool();
    chunk = row_chunks(a, static_cast<std::size_t>(pool->workers()));
    if (chunk.size() < 3) pool.reset();
  }
  const std::size_t chunks = chunk.size() - 1;
  const std::size_t slots =
      pool ? static_cast<std::size_t>(pool->workers()) : 1;

  struct Shape {
    std::uint32_t key_lo = 0, key_hi = 0;  // keys [key_lo, key_hi)
    index_t widest_band = 0, widest_row = 0;
  };
  std::vector<Shape> shape(chunks);
  run_slots(pool.get(), slots, chunks, [&](std::uint32_t c, std::size_t) {
    Shape& sh = shape[c];
    index_t lo_col = std::numeric_limits<index_t>::max(), hi_col = -1;
    for (std::size_t b0 = chunk[c]; b0 < chunk[c + 1]; b0 += band) {
      const std::size_t b1 = std::min(chunk[c + 1], b0 + band);
      sh.widest_band = std::max(sh.widest_band, row_ptr[b1] - row_ptr[b0]);
      for (std::size_t i = b0; i < b1; ++i)
        sh.widest_row = std::max(sh.widest_row, row_ptr[i + 1] - row_ptr[i]);
    }
    for (auto k = static_cast<std::size_t>(row_ptr[chunk[c]]);
         k < static_cast<std::size_t>(row_ptr[chunk[c + 1]]); ++k) {
      lo_col = std::min(lo_col, col_ind[k]);
      hi_col = std::max(hi_col, col_ind[k]);
    }
    // The lowest key is a band's last row's at the lowest column (BCSD
    // shifts keys down the band), the highest its first row's.
    if (hi_col >= 0) {
      sh.key_lo = blk.key(blk.band - 1, lo_col);
      sh.key_hi = blk.key(0, hi_col) + 1;
    }
  });
  std::size_t span = 0, widest_band = 0, widest_row = 0;
  for (const Shape& sh : shape) {
    span = std::max<std::size_t>(span, sh.key_hi - sh.key_lo);
    widest_band =
        std::max(widest_band, static_cast<std::size_t>(sh.widest_band));
    widest_row = std::max(widest_row, static_cast<std::size_t>(sh.widest_row));
  }
  // The slots' counters together stay within one array over every key,
  // what a conversion on one thread needs: chunks whose keys spread over
  // most columns run on fewer slots, on the caller alone at worst.
  const std::size_t active = std::clamp<std::size_t>(
      blk.keys(a.cols()) / std::max<std::size_t>(span, 1), 1, slots);
  if (active == 1) pool.reset();

  const std::size_t count_bytes = ConversionGuard::mul(
      format, ConversionGuard::mul(format, span, sizeof(std::uint32_t)),
      active);
  ConversionGuard::check(format, 0, a.nnz(), sizeof(V), count_bytes);
  // A chunk's counter of key k, at k minus the chunk's lowest key: a
  // key's occurrences in a band, then its block's slot in the band.
  struct Counters {
    std::uint32_t* count;
    std::uint32_t base;
    std::uint32_t& operator()(std::uint32_t key) const {
      return count[key - base];
    }
  };
  struct Scratch {
    std::vector<std::uint32_t> count;
    std::vector<std::uint32_t> band_keys;
    std::vector<index_t> cols;  // a row out of column order
  };
  std::vector<Scratch> scratch(active);
  for (Scratch& s : scratch) {
    s.count.assign(span, 0);
    s.band_keys.resize(widest_band);
    s.cols.reserve(widest_row);
  }

  brow_ptr.assign((n + band - 1) / band + 1, 0);
  // rem_at[c + 1]: chunk c's remainder nonzeros, then their offset sums.
  std::vector<std::size_t> rem_at(chunks + 1, 0);
  run_slots(pool.get(), active, chunks, [&](std::uint32_t c, std::size_t w) {
    const Counters at{scratch[w].count.data(), shape[c].key_lo};
    std::size_t rem_nnz = 0;
    auto size_band = [&](std::size_t lo, std::size_t,
                         const std::uint32_t* band_keys,
                         std::size_t distinct) {
      std::size_t blocks = 0;
      for (std::size_t t = 0; t < distinct; ++t) {
        const std::size_t k = at(band_keys[t]);
        at(band_keys[t]) = 0;
        if (!remainder || k == elems) ++blocks;
        else rem_nnz += k;
      }
      brow_ptr[lo / band + 1] = static_cast<index_t>(blocks);
    };
    scan_bands(a, blk, chunk[c], chunk[c + 1], std::span(scratch[w].count),
               shape[c].key_lo, std::span(scratch[w].band_keys), size_band);
    rem_at[c + 1] = rem_nnz;
  });
  std::partial_sum(brow_ptr.begin(), brow_ptr.end(), brow_ptr.begin());
  std::partial_sum(rem_at.begin(), rem_at.end(), rem_at.begin());

  const auto nblocks = static_cast<std::size_t>(brow_ptr.back());
  const std::size_t rem_nnz = rem_at.back();
  const std::size_t stored = ConversionGuard::mul(format, nblocks, elems);
  const std::size_t rem_index = remainder ? n + 1 + rem_nnz : 0;
  ConversionGuard::check(
      format, stored + rem_nnz, a.nnz(), sizeof(V),
      (brow_ptr.size() + nblocks + rem_index) * sizeof(index_t) +
          rem_nnz * sizeof(rem_tag_t) + extra_index_bytes + count_bytes);
  bcol_ind.resize(nblocks);
  bval.assign(stored, V{0});
  aligned_vector<index_t> rem_ptr(remainder ? n + 1 : 0, 0);
  aligned_vector<index_t> rem_col(rem_nnz);
  aligned_vector<V> rem_val(rem_nnz);
  aligned_vector<rem_tag_t> tag(rem_nnz);

  // A key's counter holds its block's slot in the band, or kRemainder.
  constexpr auto kRemainder = std::numeric_limits<std::uint32_t>::max();
  // repeats[c]: chunk c's blocked entries at an already-filled position.
  std::vector<std::size_t> repeats(chunks, 0);
  run_slots(pool.get(), active, chunks, [&](std::uint32_t c, std::size_t w) {
    const Counters at{scratch[w].count.data(), shape[c].key_lo};
    std::vector<index_t>& cols = scratch[w].cols;
    std::size_t pos = rem_at[c];
    auto fill_band = [&](std::size_t lo, std::size_t hi,
                         std::uint32_t* band_keys, std::size_t distinct) {
      const std::size_t touched = distinct;
      if (remainder) {
        std::uint32_t* full_end = std::partition(
            band_keys, band_keys + distinct,
            [&](std::uint32_t k) { return at(k) == elems; });
        for (const std::uint32_t* k = full_end; k != band_keys + distinct;
             ++k)
          at(*k) = kRemainder;
        distinct = static_cast<std::size_t>(full_end - band_keys);
      }
      std::sort(band_keys, band_keys + distinct);
      order(lo / band, band_keys, distinct);
      const auto first = static_cast<std::size_t>(brow_ptr[lo / band]);
      for (std::size_t t = 0; t < distinct; ++t) {
        bcol_ind[first + t] = blk.bcol(band_keys[t]);
        at(band_keys[t]) = static_cast<std::uint32_t>(t);
      }
      const rem_tag_t tag0 = rem_tag(static_cast<index_t>(lo), blk.band);
      for (std::size_t i = lo; i < hi; ++i) {
        const auto di = static_cast<index_t>(i - lo);
        const auto k0 = static_cast<std::size_t>(row_ptr[i]);
        const auto k1 = static_cast<std::size_t>(row_ptr[i + 1]);
        bool increasing = true;
        for (std::size_t k = k0; k < k1; ++k) {
          const index_t j = col_ind[k];
          increasing &= k == k0 || j > col_ind[k - 1];
          const std::uint32_t key = blk.key(di, j);
          const std::uint32_t slot = at(key);
          if (slot != kRemainder) {
            bval[(first + slot) * elems + blk.offset(di, j, key)] += val[k];
          } else {
            rem_col[pos] = j;
            tag[pos] = static_cast<rem_tag_t>(tag0 + di);
            rem_val[pos++] = val[k];
          }
        }
        if (remainder) rem_ptr[i + 1] = static_cast<index_t>(pos);
        if (increasing) continue;
        // Rare: a row out of column order may repeat a column.
        cols.clear();
        for (std::size_t k = k0; k < k1; ++k)
          if (at(blk.key(di, col_ind[k])) != kRemainder)
            cols.push_back(col_ind[k]);
        std::sort(cols.begin(), cols.end());
        repeats[c] += static_cast<std::size_t>(
            cols.end() - std::unique(cols.begin(), cols.end()));
      }
      for (std::size_t t = 0; t < touched; ++t) at(band_keys[t]) = 0;
    };
    scan_bands(a, blk, chunk[c], chunk[c + 1], std::span(scratch[w].count),
               shape[c].key_lo, std::span(scratch[w].band_keys), fill_band);
  });

  if (remainder) {
    *remainder = Csr<V>(a.rows(), a.cols(), std::move(rem_ptr),
                        std::move(rem_col), std::move(rem_val));
    *rem_tags = std::move(tag);
  }
  return a.nnz() - rem_nnz -
         std::accumulate(repeats.begin(), repeats.end(), std::size_t{0});
}

}  // namespace bspmv::detail
