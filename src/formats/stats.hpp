// Structural block statistics computed without materialising a blocked
// matrix.
//
// The performance models (§IV) need, for every candidate (format, block)
// pair: the number of blocks nb, the padding, and from those the working
// set. One counting pass over CSR per block shape yields both the padded
// and the decomposed layout, so ranking all 106 OVERLAP candidates costs
// 26 passes and no conversion. The ranking runs the passes as tasks on
// the shared TaskPool: 39–121 ms per `small` suite matrix of 1.2–2.5 M
// nonzeros on a 4-vCPU Xeon VM, against 168–549 ms for the same passes
// on one thread (docs/models.md, "Selection cost").
#pragma once

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

/// The buffers a structural scan works in: the dense key counters (all
/// zero between scans) and one band's distinct keys. A caller that runs
/// many scans on several threads (the ranking, src/core/working_set.cpp)
/// makes one per thread with scan_scratch on its own thread, so the scans
/// themselves allocate nothing.
struct ScanScratch {
  std::vector<std::uint32_t> count;
  std::vector<std::uint32_t> touched;
};

/// Scratch large enough for every blocking of `a` whose block dimensions
/// are at most kMaxBlockElems: cols + kMaxBlockElems counters and the
/// most nonzeros in any kMaxBlockElems consecutive rows.
template <class V>
ScanScratch scan_scratch(const Csr<V>& a);

/// bcsr_blocking_stats / bcsd_blocking_stats in `scratch`, which they
/// leave zeroed (and grow if it is too small).
template <class V>
BlockingStats bcsr_blocking_stats(const Csr<V>& a, BlockShape shape,
                                  ScanScratch& scratch);
template <class V>
BlockingStats bcsd_blocking_stats(const Csr<V>& a, int b,
                                  ScanScratch& scratch);

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
