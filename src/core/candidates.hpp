// Candidate space: every (storage format, block shape/size, kernel
// implementation) combination the paper evaluates and the models rank.
#pragma once

#include <string>
#include <vector>

#include "src/formats/block_shapes.hpp"
#include "src/kernels/impl.hpp"

namespace bspmv {

enum class FormatKind {
  kCsr,
  kBcsr,
  kBcsrDec,
  kBcsd,
  kBcsdDec,
  kVbl,
  // Values are stable across releases: 6 and 8 belonged to the retired
  // VBR and CSR-delta formats and are not reused.
  kUbcsr = 7,  ///< extension: unaligned BCSR (Vuduc & Moon [17])
};

const char* format_name(FormatKind kind);

/// One point in the tuning space.
struct Candidate {
  FormatKind kind = FormatKind::kCsr;
  BlockShape shape{1, 1};  ///< BCSR / BCSR-DEC block shape
  int b = 0;               ///< BCSD / BCSD-DEC diagonal length
  Impl impl = Impl::kScalar;

  /// Unique id, e.g. "bcsr_dec_3x2_simd", "csr_scalar", "bcsd_4_scalar".
  std::string id() const;

  /// Identity of the block kernel this candidate's *blocked* part runs —
  /// decomposed formats share it with their padded counterpart (same
  /// inner routine), so profiled t_b / nof values are shared too.
  /// e.g. both bcsr_3x2 and bcsr_dec_3x2 -> "bcsr_3x2_simd".
  std::string kernel_id() const;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// The candidates the performance models rank (§IV): CSR as degenerate
/// 1×1 blocking plus every fixed-size blocking method and block; variable
/// size blocking (1D-VBL) is excluded, as in the paper.
std::vector<Candidate> model_candidates(bool include_simd = true);

/// The formats benchmarked in §V-A — adds scalar 1D-VBL (the paper ran
/// no simd 1D-VBL, see Table II).
std::vector<Candidate> bench_candidates(bool include_simd = true);

/// Kernel profile key for the CSR kernel used by decomposed remainders.
std::string csr_kernel_id(Impl impl);

/// The extension format beyond the paper's evaluation: UBCSR at every
/// BCSR shape. No model ranks it and the machine profile does not time
/// it; it is a convertible, runnable format outside the candidate space.
std::vector<Candidate> extension_candidates(bool include_simd = true);

}  // namespace bspmv
