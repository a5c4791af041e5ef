#include "src/core/working_set.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <span>

#include "src/formats/decomposed.hpp"
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

// The CSR remainder of a decomposed candidate plus its row tags.
template <class V>
std::size_t dec_remainder_bytes(const DecompStats& st, index_t rows) {
  return csr_arrays_bytes<V>(st.remainder_nnz, rows) +
         st.remainder_nnz * sizeof(rem_tag_t);
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

// Structural scans shared across candidates: one count per blocking
// serves the padded and decomposed variants and both impls. The cache
// counts every blocking its candidates need up front, so costing only
// reads it.
template <class V>
struct StatsCache {
  std::map<std::pair<int, int>, BlockingStats> bcsr;
  std::map<int, BlockingStats> bcsd;

  StatsCache(const Csr<V>& a, std::span<const Candidate> candidates);

  const BlockingStats& get_bcsr(BlockShape s) const {
    return bcsr.at({s.r, s.c});
  }
  const BlockingStats& get_bcsd(int b) const { return bcsd.at(b); }
};

template <class V>
StatsCache<V>::StatsCache(const Csr<V>& a,
                          std::span<const Candidate> candidates) {
  for (const Candidate& c : candidates) {
    if (c.kind == FormatKind::kBcsr || c.kind == FormatKind::kBcsrDec)
      bcsr.try_emplace({c.shape.r, c.shape.c});
    else if (c.kind == FormatKind::kBcsd || c.kind == FormatKind::kBcsdDec)
      bcsd.try_emplace(c.b);
  }
  // Two or more blockings of at most kMaxBlockElems elements are counted
  // by fused scans, one per band height, on the shared pool; a lone
  // blocking, or a larger one, is scanned on its own on this thread.
  const bool fuse = bcsr.size() + bcsd.size() >= 2;
  detail::HeightPlan plan{};
  for (auto& [shape, st] : bcsr) {
    const auto [r, c] = shape;
    if (fuse && r >= 1 && c >= 1 && r * c <= kMaxBlockElems)
      plan[static_cast<std::size_t>(r - 1)].bcsr |= 1u << (c - 1);
    else
      st = bcsr_blocking_stats(a, BlockShape{r, c});
  }
  for (auto& [b, st] : bcsd) {
    if (fuse && b >= 1 && b <= kMaxBlockElems)
      plan[static_cast<std::size_t>(b - 1)].bcsd = true;
    else
      st = bcsd_blocking_stats(a, b);
  }
  if (!fuse) return;
  const auto by_height = detail::height_stats(a, plan);
  for (int h = 1; h <= kMaxBlockElems; ++h) {
    const auto hi = static_cast<std::size_t>(h - 1);
    for (int c = 1; c <= kMaxBlockElems; ++c)
      if (plan[hi].bcsr >> (c - 1) & 1u)
        bcsr[{h, c}] = by_height[hi].bcsr[static_cast<std::size_t>(c - 1)];
    if (plan[hi].bcsd) bcsd[h] = by_height[hi].bcsd;
  }
}

template <class V>
CandidateCost cost_with_cache(const Csr<V>& a, const Candidate& c,
                              const StatsCache<V>& cache) {
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
          csr_kernel_id(c.impl), dec_remainder_bytes<V>(st, a.rows()),
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
          csr_kernel_id(c.impl), dec_remainder_bytes<V>(st, a.rows()),
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
  const StatsCache<V> cache(a, {&c, 1});
  return cost_with_cache(a, c, cache);
}

template <class V>
std::vector<CandidateCost> all_candidate_costs(
    const Csr<V>& a, const std::vector<Candidate>& candidates) {
  const StatsCache<V> cache(a, candidates);
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
