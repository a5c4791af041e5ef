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
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/formats/block_shapes.hpp"
#include "src/formats/conversion_guard.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/util/macros.hpp"

namespace bspmv::detail {

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

/// Count every band's keys in `count` (all zero, at least blk.keys(cols)
/// long) and call on_band(lo, hi, keys, n) for the band of rows [lo, hi):
/// keys[0, n) are its distinct keys in first-occurrence order and
/// count[key] their occurrences. on_band may permute keys[0, n) and
/// overwrite their counters, and must zero them before it returns (the
/// statistics fold that into the pass that reads them). `touched` holds
/// the keys; it grows only when a band has more nonzeros than it holds.
template <class V, class Blocking, class BandFn>
void scan_bands(const Csr<V>& a, const Blocking& blk,
                std::vector<std::uint32_t>& count,
                std::vector<std::uint32_t>& touched, BandFn on_band) {
  const auto n = static_cast<std::size_t>(a.rows());
  const auto band = static_cast<std::size_t>(blk.band);
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  for (std::size_t lo = 0; lo < n; lo += band) {
    const std::size_t hi = std::min(n, lo + band);
    const auto band_nnz = static_cast<std::size_t>(row_ptr[hi] - row_ptr[lo]);
    if (touched.size() < band_nnz) touched.resize(band_nnz);
    // Branch-free: every key is written, the end advances only on a
    // key's first occurrence in the band.
    std::size_t distinct = 0;
    for (std::size_t i = lo; i < hi; ++i)
      for (auto k = static_cast<std::size_t>(row_ptr[i]);
           k < static_cast<std::size_t>(row_ptr[i + 1]); ++k) {
        const std::uint32_t key =
            blk.key(static_cast<index_t>(i - lo), col_ind[k]);
        BSPMV_DBG_ASSERT(key < count.size());
        touched[distinct] = key;
        distinct += count[key]++ == 0;
      }
    on_band(lo, hi, touched.data(), distinct);
  }
}

/// Convert `a` to the blocking `blk` in two passes, filling brow_ptr,
/// bcol_ind and bval, and return the number of distinct positions the
/// blocks hold. Without `remainder` every key is a block (padded layout);
/// with it only full blocks are stored and every other nonzero goes, in
/// input order, to *remainder and its row tag to *rem_tags (-DEC, §II-B).
///   1. Size pass: count the blocks (and remainder nonzeros) per band.
///   2. Guard: charge every allocation, the counter scratch included, to
///      ConversionGuard before making it.
///   3. Fill pass: per band, sort the block keys, let order(band_index,
///      keys, n) reorder them, write each key's slot into its counter and
///      scatter the values (a repeated column is summed into one value)
///      and the remainder entries with their tags.
/// `extra_index_bytes` are index arrays the caller has already sized.
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

  const std::size_t count_bytes = ConversionGuard::mul(
      format, blk.keys(a.cols()), sizeof(std::uint32_t));
  ConversionGuard::check(format, 0, a.nnz(), sizeof(V), count_bytes);
  std::vector<std::uint32_t> count(blk.keys(a.cols()), 0);
  std::vector<std::uint32_t> band_keys;

  brow_ptr.assign((n + band - 1) / band + 1, 0);
  std::size_t rem_nnz = 0;
  auto size_band = [&](std::size_t lo, std::size_t, const std::uint32_t* keys,
                       std::size_t distinct) {
    std::size_t blocks = 0;
    for (std::size_t t = 0; t < distinct; ++t) {
      const std::size_t c = count[keys[t]];
      count[keys[t]] = 0;
      if (!remainder || c == elems) ++blocks;
      else rem_nnz += c;
    }
    brow_ptr[lo / band + 1] =
        brow_ptr[lo / band] + static_cast<index_t>(blocks);
  };
  scan_bands(a, blk, count, band_keys, size_band);

  const auto nblocks = static_cast<std::size_t>(brow_ptr.back());
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
  std::size_t pos = 0;
  std::size_t repeats = 0;  // blocked entries at an already-filled position
  std::vector<index_t> cols;
  auto fill_band = [&](std::size_t lo, std::size_t hi, std::uint32_t* keys,
                       std::size_t distinct) {
    const std::size_t touched = distinct;
    if (remainder) {
      std::uint32_t* full_end = std::partition(
          keys, keys + distinct,
          [&](std::uint32_t k) { return count[k] == elems; });
      for (const std::uint32_t* k = full_end; k != keys + distinct; ++k)
        count[*k] = kRemainder;
      distinct = static_cast<std::size_t>(full_end - keys);
    }
    std::sort(keys, keys + distinct);
    order(lo / band, keys, distinct);
    const auto first = static_cast<std::size_t>(brow_ptr[lo / band]);
    for (std::size_t t = 0; t < distinct; ++t) {
      bcol_ind[first + t] = blk.bcol(keys[t]);
      count[keys[t]] = static_cast<std::uint32_t>(t);
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
        const std::uint32_t slot = count[key];
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
        if (count[blk.key(di, col_ind[k])] != kRemainder)
          cols.push_back(col_ind[k]);
      std::sort(cols.begin(), cols.end());
      repeats += static_cast<std::size_t>(
          cols.end() - std::unique(cols.begin(), cols.end()));
    }
    for (std::size_t t = 0; t < touched; ++t) count[keys[t]] = 0;
  };
  scan_bands(a, blk, count, band_keys, fill_band);

  if (remainder) {
    *remainder = Csr<V>(a.rows(), a.cols(), std::move(rem_ptr),
                        std::move(rem_col), std::move(rem_val));
    *rem_tags = std::move(tag);
  }
  return a.nnz() - rem_nnz - repeats;
}

}  // namespace bspmv::detail
