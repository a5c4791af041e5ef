#include "src/core/working_set.hpp"

#include <map>

#include "src/formats/ubcsr.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

namespace {

constexpr std::size_t kIdx = sizeof(index_t);

template <class V>
std::size_t vectors_bytes(const Csr<V>& a) {
  return (static_cast<std::size_t>(a.rows()) +
          static_cast<std::size_t>(a.cols())) *
         sizeof(V);
}

template <class V>
std::size_t csr_arrays_bytes(std::size_t nnz, index_t rows) {
  return nnz * (sizeof(V) + kIdx) + (static_cast<std::size_t>(rows) + 1) * kIdx;
}

template <class V>
std::size_t bcsr_arrays_bytes(const BlockStats& st, index_t rows, int r) {
  const std::size_t brows =
      (static_cast<std::size_t>(rows) + static_cast<std::size_t>(r) - 1) /
      static_cast<std::size_t>(r);
  return st.stored_values * sizeof(V) + st.blocks * kIdx + (brows + 1) * kIdx;
}

template <class V>
std::size_t bcsd_arrays_bytes(const BlockStats& st, index_t rows, int b) {
  const std::size_t segs =
      (static_cast<std::size_t>(rows) + static_cast<std::size_t>(b) - 1) /
      static_cast<std::size_t>(b);
  // brow_ptr + the per-segment full-diagonal counters our layout carries.
  return st.stored_values * sizeof(V) + st.blocks * kIdx +
         (segs + 1) * kIdx + segs * kIdx;
}

// Memoised structural scans shared across candidates: one pass per block
// shape serves the padded and decomposed variants and both impls.
template <class V>
struct StatsCache {
  const Csr<V>& a;
  std::map<std::pair<int, int>, BlockingStats> bcsr;
  std::map<int, BlockingStats> bcsd;

  const BlockingStats& get_bcsr(BlockShape s) {
    auto [it, fresh] = bcsr.try_emplace({s.r, s.c});
    if (fresh) it->second = bcsr_blocking_stats(a, s);
    return it->second;
  }
  const BlockingStats& get_bcsd(int b) {
    auto [it, fresh] = bcsd.try_emplace(b);
    if (fresh) it->second = bcsd_blocking_stats(a, b);
    return it->second;
  }
};

template <class V>
CandidateCost cost_with_cache(const Csr<V>& a, const Candidate& c,
                              StatsCache<V>& cache) {
  CandidateCost cost;
  cost.candidate = c;
  const std::size_t vecs = vectors_bytes(a);
  // Every branch below accounts one x+y pair in its working set.
  cost.xy_bytes = vecs;

  switch (c.kind) {
    case FormatKind::kCsr: {
      cost.parts.push_back(CostPart{
          c.kernel_id(), csr_arrays_bytes<V>(a.nnz(), a.rows()) + vecs,
          a.nnz()});
      break;
    }
    case FormatKind::kBcsr: {
      const BlockStats& st = cache.get_bcsr(c.shape).padded;
      cost.parts.push_back(CostPart{
          c.kernel_id(), bcsr_arrays_bytes<V>(st, a.rows(), c.shape.r) + vecs,
          st.blocks});
      break;
    }
    case FormatKind::kBcsrDec: {
      const DecompStats& st = cache.get_bcsr(c.shape).dec;
      cost.parts.push_back(CostPart{
          c.kernel_id(),
          bcsr_arrays_bytes<V>(st.full, a.rows(), c.shape.r) + vecs,
          st.full.blocks});
      cost.parts.push_back(CostPart{
          csr_kernel_id(c.impl),
          csr_arrays_bytes<V>(st.remainder_nnz, a.rows()),
          st.remainder_nnz});
      break;
    }
    case FormatKind::kBcsd: {
      const BlockStats& st = cache.get_bcsd(c.b).padded;
      cost.parts.push_back(CostPart{
          c.kernel_id(), bcsd_arrays_bytes<V>(st, a.rows(), c.b) + vecs,
          st.blocks});
      break;
    }
    case FormatKind::kBcsdDec: {
      const DecompStats& st = cache.get_bcsd(c.b).dec;
      cost.parts.push_back(CostPart{
          c.kernel_id(), bcsd_arrays_bytes<V>(st.full, a.rows(), c.b) + vecs,
          st.full.blocks});
      cost.parts.push_back(CostPart{
          csr_kernel_id(c.impl),
          csr_arrays_bytes<V>(st.remainder_nnz, a.rows()),
          st.remainder_nnz});
      break;
    }
    case FormatKind::kVbl: {
      const std::size_t blocks = vbl_block_count(a);
      const std::size_t ws = a.nnz() * sizeof(V) +
                             (static_cast<std::size_t>(a.rows()) + 1) * kIdx +
                             blocks * (kIdx + sizeof(blk_size_t)) + vecs;
      cost.parts.push_back(CostPart{c.kernel_id(), ws, blocks});
      break;
    }
    case FormatKind::kUbcsr: {
      const BlockStats st = ubcsr_stats(a, c.shape);
      const std::size_t brows =
          (static_cast<std::size_t>(a.rows()) +
           static_cast<std::size_t>(c.shape.r) - 1) /
          static_cast<std::size_t>(c.shape.r);
      cost.parts.push_back(CostPart{
          c.kernel_id(),
          st.stored_values * sizeof(V) + st.blocks * kIdx +
              (brows + 1) * kIdx + vecs,
          st.blocks});
      break;
    }
  }
  return cost;
}

}  // namespace

template <class V>
CandidateCost candidate_cost(const Csr<V>& a, const Candidate& c) {
  StatsCache<V> cache{a, {}, {}};
  return cost_with_cache(a, c, cache);
}

template <class V>
std::vector<CandidateCost> all_candidate_costs(
    const Csr<V>& a, const std::vector<Candidate>& candidates) {
  StatsCache<V> cache{a, {}, {}};
  std::vector<CandidateCost> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates)
    out.push_back(cost_with_cache(a, c, cache));
  return out;
}

#define BSPMV_INST(V)                                                       \
  template CandidateCost candidate_cost(const Csr<V>&, const Candidate&);  \
  template std::vector<CandidateCost> all_candidate_costs(                 \
      const Csr<V>&, const std::vector<Candidate>&);
BSPMV_INST(float)
BSPMV_INST(double)
#undef BSPMV_INST

}  // namespace bspmv
