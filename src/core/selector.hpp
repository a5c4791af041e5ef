// Model-driven selection of storage format, block and implementation —
// the "autotuner" built on §IV's models.
//
// Selection is instrumented (src/observe/observe.hpp): spans "select" /
// "select/rank" and the select.candidates_ranked counter record how
// much work each autotuning pass does (docs/observability.md).
#pragma once

#include <vector>

#include "src/core/executor.hpp"
#include "src/core/models.hpp"

namespace bspmv {

struct RankedCandidate {
  Candidate candidate;
  /// Predicted seconds per operation: one SpMV for k == 1 workloads, one
  /// whole SpMM multiply (all k vectors) otherwise.
  double predicted_seconds = 0.0;
};

/// The runtime workload a selection should optimise for. The default is
/// the classic single-vector SpMV; declaring k > 1 makes every entry
/// point below rank by predict_spmm for that batch width instead of
/// predict — the best single-vector candidate is often not the best
/// k-vector one (docs/spmm.md crossover analysis).
struct Workload {
  int k = 1;
};

/// Rank every model candidate for matrix `a` under `model`, fastest
/// predicted first (ties broken deterministically by candidate id).
///
/// Per §V-B, the MEM model cannot distinguish kernel implementations (it
/// ignores the computational part), so it ranks the non-simd candidates
/// only; MEMCOMP/OVERLAP also pick between scalar and simd.
template <class V>
std::vector<RankedCandidate> rank_candidates(ModelKind model, const Csr<V>& a,
                                             const MachineProfile& profile);

/// Workload-aware ranking: like the overload above for workload.k == 1,
/// otherwise ranked by predicted seconds of one k-wide SpMM multiply.
template <class V>
std::vector<RankedCandidate> rank_candidates(ModelKind model, const Csr<V>& a,
                                             const MachineProfile& profile,
                                             const Workload& workload);

/// Rank precomputed costs (all_candidate_costs of a matrix with values of
/// precision `prec`) the way rank_candidates ranks them, so several models
/// or workloads can share one set of structural scans. Under MEM the simd
/// costs are skipped. rank_candidates(model, a, profile, workload) equals
/// rank_costs(model, all_candidate_costs(a, model_candidates(true)),
/// profile, precision_of<V>, workload).
std::vector<RankedCandidate> rank_costs(ModelKind model,
                                        const std::vector<CandidateCost>& costs,
                                        const MachineProfile& profile,
                                        Precision prec,
                                        const Workload& workload = {});

/// The model's selection: the top-ranked candidate.
template <class V>
RankedCandidate select_best(ModelKind model, const Csr<V>& a,
                            const MachineProfile& profile);

/// Workload-aware selection.
template <class V>
RankedCandidate select_best(ModelKind model, const Csr<V>& a,
                            const MachineProfile& profile,
                            const Workload& workload);

/// Fault-tolerant selection: rank with the model, then materialise the
/// best candidate that actually converts and validates, falling back to
/// scalar CSR when every candidate fails (resource-guard trips, padding
/// blowups, unsupported combinations). Always returns a correct,
/// runnable executor for a valid input matrix; the skipped candidates
/// and their failure reasons ride along for observability.
template <class V>
PreparedExecutor<V> select_and_prepare(ModelKind model, const Csr<V>& a,
                                       const MachineProfile& profile);

/// Workload-aware fault-tolerant selection.
template <class V>
PreparedExecutor<V> select_and_prepare(ModelKind model, const Csr<V>& a,
                                       const MachineProfile& profile,
                                       const Workload& workload);

#define BSPMV_DECL(V)                                                  \
  extern template std::vector<RankedCandidate> rank_candidates(        \
      ModelKind, const Csr<V>&, const MachineProfile&);                \
  extern template std::vector<RankedCandidate> rank_candidates(        \
      ModelKind, const Csr<V>&, const MachineProfile&, const Workload&); \
  extern template RankedCandidate select_best(ModelKind, const Csr<V>&, \
                                              const MachineProfile&);  \
  extern template RankedCandidate select_best(                         \
      ModelKind, const Csr<V>&, const MachineProfile&, const Workload&); \
  extern template PreparedExecutor<V> select_and_prepare(              \
      ModelKind, const Csr<V>&, const MachineProfile&);                \
  extern template PreparedExecutor<V> select_and_prepare(              \
      ModelKind, const Csr<V>&, const MachineProfile&, const Workload&);
BSPMV_DECL(float)
BSPMV_DECL(double)
#undef BSPMV_DECL

}  // namespace bspmv
