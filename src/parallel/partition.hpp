// Static load balancing for multithreaded SpMV — §V-A: "we have split the
// input matrix row-wise ... such that each thread is assigned the same
// number of nonzeros. Specifically, for the case of methods with padding,
// we also accounted for the extra zero elements used for the padding."
//
// The unit of splitting is the format's natural row granule (rows for CSR,
// block rows for BCSR, segments for BCSD) and the weight of a granule is
// the number of stored values it contributes — including padding.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/formats/csr.hpp"

namespace bspmv {

/// Split granules [0, weights.size()) into `parts` contiguous ranges with
/// near-equal total weight. Returns parts+1 boundaries (first 0, last
/// weights.size()); every range is valid (possibly empty).
std::vector<index_t> balanced_partition(std::span<const std::size_t> weights,
                                        int parts);

/// Total weight per part for `bounds` as produced by balanced_partition:
/// result[p] = Σ weights[bounds[p] .. bounds[p+1]). The observability
/// hooks report this as each thread's assigned stored values, making load
/// imbalance directly visible in a RunReport.
std::vector<std::size_t> part_weight_sums(std::span<const std::size_t> weights,
                                          std::span<const index_t> bounds);

/// Per-row stored-value weights (CSR: row nnz): FormatOps<Csr<V>>::
/// pass_weights behind a header that does not pull in FormatOps. The
/// layer benchmark (layerbench/) calls it.
template <class V>
std::vector<std::size_t> row_weights(const Csr<V>& a);

extern template std::vector<std::size_t> row_weights(const Csr<float>&);
extern template std::vector<std::size_t> row_weights(const Csr<double>&);

}  // namespace bspmv
