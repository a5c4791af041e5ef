// Candidate cost structure: working set and block counts per submatrix.
//
// This is the structural input to eq. (1)–(3): for a candidate decomposed
// into k submatrices, the models need (ws_i, nb_i, kernel_i) per part.
// Everything is derived from one cheap statistics pass over the CSR
// matrix — no candidate format is ever materialised for prediction.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/candidates.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/stats.hpp"

namespace bspmv {

/// One submatrix of a candidate's decomposition (k = 1 for non-decomposed
/// formats, k = 2 for BCSR-DEC / BCSD-DEC).
struct CostPart {
  std::string kernel_id;     ///< profile key for t_b / nof lookups
  std::size_t ws_bytes = 0;  ///< working set of this part's arrays
  std::size_t nb = 0;        ///< number of blocks (nnz for CSR parts)
};

struct CandidateCost {
  Candidate candidate;
  std::vector<CostPart> parts;
  /// Bytes of one x + y vector pair. total_ws() includes exactly one such
  /// pair; the k-aware SpMM models (predict_spmm) subtract it to isolate
  /// the matrix traffic and scale the vector traffic by k.
  std::size_t xy_bytes = 0;

  std::size_t total_ws() const {
    std::size_t s = 0;
    for (const auto& p : parts) s += p.ws_bytes;
    return s;
  }

  /// Matrix-array traffic only (total_ws minus the x/y pair).
  std::size_t matrix_ws() const {
    const std::size_t t = total_ws();
    return t > xy_bytes ? t - xy_bytes : 0;
  }
};

/// Compute the cost structure of `c` for matrix `a` with value type V.
/// The x and y vectors are accounted once, in the first part. Scans on
/// the calling thread.
template <class V>
CandidateCost candidate_cost(const Csr<V>& a, const Candidate& c);

/// Costs for all candidates, reusing shared statistics (one count per
/// blocking serves both the padded and decomposed variants and both
/// impls). The distinct blockings are counted first, in fused scans of
/// one band height each, as row-chunk tasks on
/// TaskPool::shared(hardware_concurrency) (inline when that pool is busy,
/// and in a forked child, whose shared pool has no threads); the result
/// equals candidate_cost of each candidate (docs/tasking.md).
template <class V>
std::vector<CandidateCost> all_candidate_costs(
    const Csr<V>& a, const std::vector<Candidate>& candidates);

#define BSPMV_DECL(V)                                                     \
  extern template CandidateCost candidate_cost(const Csr<V>&,            \
                                               const Candidate&);        \
  extern template std::vector<CandidateCost> all_candidate_costs(        \
      const Csr<V>&, const std::vector<Candidate>&);
BSPMV_DECL(float)
BSPMV_DECL(double)
#undef BSPMV_DECL

}  // namespace bspmv
