#include "src/parallel/partition.hpp"

#include <algorithm>

#include "src/formats/format_ops.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

std::vector<index_t> balanced_partition(std::span<const std::size_t> weights,
                                        int parts) {
  BSPMV_CHECK_MSG(parts >= 1, "partition needs at least one part");
  const std::size_t n = weights.size();
  std::size_t total = 0;
  for (std::size_t w : weights) total += w;

  std::vector<index_t> bounds(static_cast<std::size_t>(parts) + 1, 0);
  bounds.back() = static_cast<index_t>(n);

  // Greedy prefix cuts at the ideal cumulative targets p·total/parts.
  std::size_t cum = 0;
  std::size_t unit = 0;
  for (int p = 1; p < parts; ++p) {
    const std::size_t target =
        (total * static_cast<std::size_t>(p)) / static_cast<std::size_t>(parts);
    while (unit < n && cum < target) cum += weights[unit++];
    bounds[static_cast<std::size_t>(p)] = static_cast<index_t>(unit);
  }
  return bounds;
}

std::vector<std::size_t> part_weight_sums(std::span<const std::size_t> weights,
                                          std::span<const index_t> bounds) {
  BSPMV_CHECK_MSG(bounds.size() >= 2, "bounds must delimit at least one part");
  std::vector<std::size_t> sums(bounds.size() - 1, 0);
  for (std::size_t p = 0; p + 1 < bounds.size(); ++p)
    for (index_t u = bounds[p]; u < bounds[p + 1]; ++u)
      sums[p] += weights[static_cast<std::size_t>(u)];
  return sums;
}

template <class V>
std::vector<std::size_t> row_weights(const Csr<V>& a) {
  return FormatOps<Csr<V>>::pass_weights(a);
}

template std::vector<std::size_t> row_weights(const Csr<float>&);
template std::vector<std::size_t> row_weights(const Csr<double>&);

}  // namespace bspmv
