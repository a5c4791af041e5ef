// Structural block statistics computed without materialising a blocked
// matrix.
//
// The performance models (§IV) need, for every candidate (format, block)
// pair: the number of blocks nb, the padding, and from those the working
// set. One count per blocking yields both the padded and the decomposed
// layout, so ranking all 106 OVERLAP candidates counts 26 blockings and
// converts nothing. The ranking counts every blocking of one band height
// in one fused scan, 8 scans in all, run as (height, row chunk) tasks on
// the shared TaskPool: 47–98 ms per `small` suite matrix of 1.2–2.5 M
// nonzeros on a 4-vCPU Xeon VM, against 46–164 ms for one task per
// blocking measured alternately with it (docs/models.md, "Selection
// cost").
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/formats/block_shapes.hpp"
#include "src/formats/csr.hpp"

namespace bspmv {

/// Statistics of a blocking-with-padding layout.
struct BlockStats {
  std::size_t blocks = 0;         ///< nb — number of stored blocks
  std::size_t stored_values = 0;  ///< nb · block_elems (values incl. padding)
  std::size_t covered_nnz = 0;    ///< nonzeros covered by the counted blocks

  std::size_t padding() const { return stored_values - covered_nnz; }
  /// Fill ratio: covered nonzeros / stored values (1.0 = no padding).
  double fill() const {
    return stored_values == 0
               ? 1.0
               : static_cast<double>(covered_nnz) /
                     static_cast<double>(stored_values);
  }
};

/// Statistics of a decomposed layout: full blocks + CSR remainder.
struct DecompStats {
  BlockStats full;                ///< the padding-free blocked submatrix
  std::size_t remainder_nnz = 0;  ///< nonzeros left to the CSR part
};

/// Both layouts of one blocking, filled by a single structural pass.
struct BlockingStats {
  BlockStats padded;
  DecompStats dec;
};

/// One pass over `a` for the aligned r×c blocking: BCSR and BCSR-DEC.
template <class V>
BlockingStats bcsr_blocking_stats(const Csr<V>& a, BlockShape shape);

/// One pass over `a` for the diagonal blocking of length b: BCSD and
/// BCSD-DEC.
template <class V>
BlockingStats bcsd_blocking_stats(const Csr<V>& a, int b);

namespace detail {

/// The buffers a fused scan works in: the dense key counters (all zero
/// between scans; 8 bits each, as they only need to tell "exactly the
/// block size" from fewer and more) and the key lists of one band. A
/// caller that runs scans on several threads (height_stats) makes one per
/// pool slot with scan_scratch on its own thread, so the scans themselves
/// allocate nothing.
struct ScanScratch {
  std::vector<std::uint8_t> count;
  std::vector<std::uint32_t> touched;
};

/// The blockings one fused scan of band height h counts: BCSR h×c for
/// every c whose bit c - 1 is set in `bcsr` (h·c <= kMaxBlockElems), and
/// BCSD of length h when `bcsd` is set.
struct HeightBlockings {
  unsigned bcsr = 0;
  bool bcsd = false;

  int size() const { return std::popcount(bcsr) + (bcsd ? 1 : 0); }
};

/// The blockings to count, by band height: plan[h - 1] for height h.
using HeightPlan = std::array<HeightBlockings, kMaxBlockElems>;

/// The counts of one height's blockings: bcsr[c - 1] for BCSR h×c.
struct HeightStats {
  std::array<BlockingStats, kMaxBlockElems> bcsr{};
  BlockingStats bcsd;
};

/// Scratch for every fused scan of `plan` over `a`: for the height that
/// needs most, one key counter array and one key list as long as its
/// widest band per blocking, laid end to end.
template <class V>
ScanScratch scan_scratch(const Csr<V>& a, const HeightPlan& plan);

/// Add the counts of every blocking of height h that `want` names over
/// rows [lo, hi) of `a` to `out`; lo is a multiple of h, and hi is one
/// too or the row count. `scratch` comes from scan_scratch for a plan
/// naming these blockings: the scan neither grows it nor leaves a
/// counter nonzero.
template <class V>
void add_height_stats(const Csr<V>& a, int h, HeightBlockings want,
                      std::size_t lo, std::size_t hi, ScanScratch& scratch,
                      HeightStats& out);

/// Every blocking `plan` names, counted as (height, row chunk) tasks on
/// the shared TaskPool (inline on the caller when that pool is busy), in
/// scratch this thread allocates; indexed by h - 1. The counts are those
/// of bcsr_blocking_stats / bcsd_blocking_stats.
template <class V>
std::array<HeightStats, kMaxBlockElems> height_stats(const Csr<V>& a,
                                                     const HeightPlan& plan);

}  // namespace detail

/// BCSR with padding: every aligned r×c block containing >= 1 nonzero.
template <class V>
BlockStats bcsr_stats(const Csr<V>& a, BlockShape shape);

/// BCSR-DEC: only completely full aligned blocks are extracted.
template <class V>
DecompStats bcsr_dec_stats(const Csr<V>& a, BlockShape shape);

/// BCSD with padding: every aligned diagonal block of length b containing
/// >= 1 nonzero.
template <class V>
BlockStats bcsd_stats(const Csr<V>& a, int b);

/// BCSD-DEC: only completely full diagonal blocks are extracted.
template <class V>
DecompStats bcsd_dec_stats(const Csr<V>& a, int b);

/// 1D-VBL: number of stored blocks (maximal runs of consecutive columns,
/// split into 255-element chunks per the one-byte blk_size entries).
template <class V>
std::size_t vbl_block_count(const Csr<V>& a);

}  // namespace bspmv
