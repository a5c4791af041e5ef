#include "src/core/selector.hpp"

#include <algorithm>

#include "src/observe/observe.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

std::vector<RankedCandidate> rank_costs(ModelKind model,
                                        const std::vector<CandidateCost>& costs,
                                        const MachineProfile& profile,
                                        Precision prec,
                                        const Workload& workload) {
  BSPMV_CHECK_MSG(workload.k >= 1, "workload rhs count must be >= 1");
  std::vector<RankedCandidate> out;
  out.reserve(costs.size());
  for (const CandidateCost& cost : costs) {
    if (model == ModelKind::kMem && cost.candidate.impl == Impl::kSimd)
      continue;
    const double seconds =
        workload.k > 1
            ? predict_spmm(model, cost, profile, prec, workload.k)
            : predict(model, cost, profile, prec);
    out.push_back(RankedCandidate{cost.candidate, seconds});
  }
  BSPMV_OBS_COUNT("select.candidates_ranked", out.size());
  if (workload.k > 1) BSPMV_OBS_COUNT("select.k_aware_rankings", 1);

  std::stable_sort(out.begin(), out.end(),
                   [](const RankedCandidate& x, const RankedCandidate& y) {
                     if (x.predicted_seconds != y.predicted_seconds)
                       return x.predicted_seconds < y.predicted_seconds;
                     return x.candidate.id() < y.candidate.id();
                   });
  return out;
}

template <class V>
std::vector<RankedCandidate> rank_candidates(ModelKind model, const Csr<V>& a,
                                             const MachineProfile& profile,
                                             const Workload& workload) {
  BSPMV_OBS_SPAN("rank");
  // MEM ranks scalar candidates only (§V-B): cost just those.
  const std::vector<Candidate> candidates =
      model_candidates(model != ModelKind::kMem);
  return rank_costs(model, all_candidate_costs(a, candidates), profile,
                    precision_of<V>, workload);
}

template <class V>
std::vector<RankedCandidate> rank_candidates(ModelKind model, const Csr<V>& a,
                                             const MachineProfile& profile) {
  return rank_candidates(model, a, profile, Workload{});
}

template <class V>
RankedCandidate select_best(ModelKind model, const Csr<V>& a,
                            const MachineProfile& profile,
                            const Workload& workload) {
  const auto ranked = rank_candidates(model, a, profile, workload);
  BSPMV_CHECK(!ranked.empty());
  return ranked.front();
}

template <class V>
RankedCandidate select_best(ModelKind model, const Csr<V>& a,
                            const MachineProfile& profile) {
  return select_best(model, a, profile, Workload{});
}

template <class V>
PreparedExecutor<V> select_and_prepare(ModelKind model, const Csr<V>& a,
                                       const MachineProfile& profile,
                                       const Workload& workload) {
  BSPMV_OBS_SPAN("select");
  const auto ranked = rank_candidates(model, a, profile, workload);
  std::vector<Candidate> candidates;
  candidates.reserve(ranked.size());
  for (const RankedCandidate& rc : ranked) candidates.push_back(rc.candidate);
  return try_prepare(a, candidates);
}

template <class V>
PreparedExecutor<V> select_and_prepare(ModelKind model, const Csr<V>& a,
                                       const MachineProfile& profile) {
  return select_and_prepare(model, a, profile, Workload{});
}

#define BSPMV_INST(V)                                                     \
  template std::vector<RankedCandidate> rank_candidates(                  \
      ModelKind, const Csr<V>&, const MachineProfile&);                   \
  template std::vector<RankedCandidate> rank_candidates(                  \
      ModelKind, const Csr<V>&, const MachineProfile&, const Workload&);  \
  template RankedCandidate select_best(ModelKind, const Csr<V>&,          \
                                       const MachineProfile&);            \
  template RankedCandidate select_best(ModelKind, const Csr<V>&,          \
                                       const MachineProfile&,             \
                                       const Workload&);                  \
  template PreparedExecutor<V> select_and_prepare(                        \
      ModelKind, const Csr<V>&, const MachineProfile&);                   \
  template PreparedExecutor<V> select_and_prepare(                        \
      ModelKind, const Csr<V>&, const MachineProfile&, const Workload&);
BSPMV_INST(float)
BSPMV_INST(double)
#undef BSPMV_INST

}  // namespace bspmv
