// Performance-model tests: eq. (1)-(3) arithmetic against hand-computed
// values, model orderings and the multicore adaptation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/models.hpp"
#include "src/core/selector.hpp"
#include "src/core/working_set.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::random_blocky_coo;
using bspmv::testing::synthetic_profile;

CandidateCost hand_cost() {
  CandidateCost cost;
  cost.candidate = Candidate{FormatKind::kBcsrDec, BlockShape{2, 2}, 0,
                             Impl::kScalar};
  cost.parts.push_back(CostPart{"bcsr_2x2_scalar", 1000000, 5000});
  cost.parts.push_back(CostPart{"csr_scalar", 200000, 3000});
  return cost;
}

TEST(Models, MemMatchesEquationOne) {
  const MachineProfile p = synthetic_profile(/*bw=*/1e9);
  // t = ws / BW = 1.2e6 / 1e9
  EXPECT_DOUBLE_EQ(predict_mem(hand_cost(), p), 1.2e-3);
}

TEST(Models, MemCompMatchesEquationTwo) {
  const MachineProfile p = synthetic_profile(1e9, /*tb=*/2e-9, /*nof=*/0.25);
  // t = sum(ws_i/BW + nb_i*tb) = 1.2e-3 + (5000+3000)*2e-9
  EXPECT_DOUBLE_EQ(predict_memcomp(hand_cost(), p, Precision::kDouble),
                   1.2e-3 + 8000 * 2e-9);
}

TEST(Models, OverlapMatchesEquationThree) {
  const MachineProfile p = synthetic_profile(1e9, 2e-9, 0.25);
  EXPECT_DOUBLE_EQ(predict_overlap(hand_cost(), p, Precision::kDouble),
                   1.2e-3 + 0.25 * 8000 * 2e-9);
}

TEST(Models, OrderingMemLeqOverlapLeqMemcomp) {
  // With nof in [0,1]: MEM <= OVERLAP <= MEMCOMP for any cost — MEM is the
  // paper's performance upper bound, MEMCOMP its lower bound (Fig. 3).
  const MachineProfile p = synthetic_profile(5e9, 3e-9, 0.4);
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(80, 80, 3, 0.3, 0.8, 1));
  for (const auto& cost : all_candidate_costs(a, model_candidates(true))) {
    const double mem = predict_mem(cost, p);
    const double ovl = predict_overlap(cost, p, Precision::kDouble);
    const double mc = predict_memcomp(cost, p, Precision::kDouble);
    EXPECT_LE(mem, ovl + 1e-18) << cost.candidate.id();
    EXPECT_LE(ovl, mc + 1e-18) << cost.candidate.id();
  }
}

TEST(Models, PredictDispatchesAllKinds) {
  const MachineProfile p = synthetic_profile();
  const CandidateCost cost = hand_cost();
  EXPECT_DOUBLE_EQ(predict(ModelKind::kMem, cost, p, Precision::kDouble),
                   predict_mem(cost, p));
  EXPECT_DOUBLE_EQ(predict(ModelKind::kMemComp, cost, p, Precision::kDouble),
                   predict_memcomp(cost, p, Precision::kDouble));
  EXPECT_DOUBLE_EQ(predict(ModelKind::kOverlap, cost, p, Precision::kDouble),
                   predict_overlap(cost, p, Precision::kDouble));
}

TEST(Models, MissingKernelProfileThrows) {
  MachineProfile p;
  p.bandwidth_bps = 1e9;
  const CandidateCost cost = hand_cost();
  EXPECT_NO_THROW(predict_mem(cost, p));  // MEM needs no kernel profile
  EXPECT_THROW(predict_memcomp(cost, p, Precision::kDouble),
               invalid_argument_error);
}

TEST(Models, MissingBandwidthThrows) {
  const MachineProfile p;  // bandwidth 0
  EXPECT_THROW(predict_mem(hand_cost(), p), invalid_argument_error);
}

TEST(Models, MulticoreShrinksComputeOnly) {
  const MachineProfile p = synthetic_profile(1e9, 5e-9, 0.5);
  const CandidateCost cost = hand_cost();
  // A zero ParallelOverhead leaves the shared-bandwidth multicore base.
  auto multicore = [&](ModelKind m, int threads) {
    return predict_parallel(m, cost, p, Precision::kDouble, threads,
                            ParallelOverhead{}, ExecBackend::kBulk);
  };
  const double t1 = multicore(ModelKind::kOverlap, 1);
  const double t4 = multicore(ModelKind::kOverlap, 4);
  EXPECT_DOUBLE_EQ(t1, predict_overlap(cost, p, Precision::kDouble));
  EXPECT_LT(t4, t1);
  // The memory term is the floor:
  EXPECT_GE(t4, predict_mem(cost, p));
  // MEM is thread-count invariant.
  EXPECT_DOUBLE_EQ(multicore(ModelKind::kMem, 4), predict_mem(cost, p));
}

// ------------------------------------------------------- selection ----

TEST(Selector, RanksDeterministicallyAndSorted) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(70, 70, 2, 0.4, 0.9, 2));
  const auto ranked = rank_candidates(ModelKind::kOverlap, a, p);
  ASSERT_EQ(ranked.size(), model_candidates(true).size());
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].predicted_seconds, ranked[i].predicted_seconds);
  const auto again = rank_candidates(ModelKind::kOverlap, a, p);
  for (std::size_t i = 0; i < ranked.size(); ++i)
    EXPECT_EQ(ranked[i].candidate.id(), again[i].candidate.id());
}

TEST(Selector, MemModelRanksScalarOnly) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a =
      Csr<double>::from_coo(random_blocky_coo<double>(50, 50, 2, 0.3, 0.9, 3));
  for (const auto& r : rank_candidates(ModelKind::kMem, a, p))
    EXPECT_EQ(r.candidate.impl, Impl::kScalar) << r.candidate.id();
}

TEST(Selector, PicksBlockedFormatOnPerfectlyBlockyMatrix) {
  // Under a uniform synthetic kernel profile, the ws-dominant term decides
  // — on a fully-blocky matrix a blocked format must beat CSR.
  const MachineProfile p = synthetic_profile(1e9, 1e-12, 0.0);
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(96, 96, 4, 0.5, 1.01, 4));
  const auto best = select_best(ModelKind::kOverlap, a, p);
  EXPECT_NE(best.candidate.kind, FormatKind::kCsr) << best.candidate.id();
  EXPECT_GT(best.predicted_seconds, 0.0);
}

// ------------------------------------------- executor-aware extension ----

TEST(Models, ParallelOverheadUniformWeights) {
  // 64 uniform granules, 4 threads: the bulk partition is perfect
  // (imbalance 0); with 8 tasks per thread the stealing schedule splits
  // each 16-granule home range into 8 tasks of 2 granules each, so the
  // straggler bound max_task/(total/P) is exactly 1/tasks_per_thread,
  // and the scheduling fee is one seconds_per_task per non-empty task.
  const std::vector<std::size_t> w(64, 10);
  const auto o = parallel_overhead(w, 4, 8, 2e-6);
  EXPECT_NEAR(o.bulk_imbalance, 0.0, 1e-9);
  EXPECT_NEAR(o.task_imbalance, 1.0 / 8.0, 1e-9);
  EXPECT_NEAR(o.steal_overhead_seconds, 32 * 2e-6, 1e-12);
}

TEST(Models, ParallelOverheadSkewedWeights) {
  // One granule carries most of the weight: both terms are dominated by
  // it. The bulk term is (heaviest part)/ideal - 1; the task term is the
  // raw straggler bound max_task/ideal, which can never drop below the
  // heavy granule's share (a granule cannot be split).
  std::vector<std::size_t> w(63, 1);
  w.push_back(400);
  const double ideal = 463.0 / 4.0;
  const auto o = parallel_overhead(w, 4);
  EXPECT_GT(o.bulk_imbalance, 0.0);
  EXPECT_GE(o.task_imbalance, 400.0 / ideal - 1e-12);
  EXPECT_GT(o.steal_overhead_seconds, 0.0);
}

TEST(Models, ParallelOverheadSingleGranule) {
  // One granule IS the whole matrix: the bulk backend wastes P-1 shares
  // (heaviest/ideal - 1 = 3) and the task straggler bound is the whole
  // runtime (max_task/ideal = P = 4).
  const std::vector<std::size_t> w = {1000};
  const auto o = parallel_overhead(w, 4);
  EXPECT_NEAR(o.bulk_imbalance, 3.0, 1e-9);
  EXPECT_NEAR(o.task_imbalance, 4.0, 1e-9);
}

TEST(Models, ParallelOverheadEmptyWeightsIsZero) {
  const std::vector<std::size_t> w;
  const auto o = parallel_overhead(w, 4);
  EXPECT_EQ(o.bulk_imbalance, 0.0);
  EXPECT_EQ(o.task_imbalance, 0.0);
  EXPECT_EQ(o.steal_overhead_seconds, 0.0);
}

TEST(Models, PredictParallelAddsBackendTerms) {
  const MachineProfile p = synthetic_profile(1e9, 2e-9, 0.25);
  const CandidateCost cost = hand_cost();
  ParallelOverhead o;
  o.bulk_imbalance = 0.5;
  o.task_imbalance = 0.1;
  o.steal_overhead_seconds = 3e-6;
  const double base =
      predict_parallel(ModelKind::kOverlap, cost, p, Precision::kDouble, 4,
                       ParallelOverhead{}, ExecBackend::kTasks);
  const double share =
      predict(ModelKind::kOverlap, cost, p, Precision::kDouble) / 4;
  EXPECT_DOUBLE_EQ(predict_parallel(ModelKind::kOverlap, cost, p,
                                    Precision::kDouble, 4, o,
                                    ExecBackend::kBulk),
                   base + 0.5 * share);
  EXPECT_DOUBLE_EQ(predict_parallel(ModelKind::kOverlap, cost, p,
                                    Precision::kDouble, 4, o,
                                    ExecBackend::kTasks),
                   base + 0.1 * share + 3e-6);
  // With the skew modelled above, the task backend predicts faster.
  EXPECT_LT(predict_parallel(ModelKind::kOverlap, cost, p, Precision::kDouble,
                             4, o, ExecBackend::kTasks),
            predict_parallel(ModelKind::kOverlap, cost, p, Precision::kDouble,
                             4, o, ExecBackend::kBulk));
}

// ------------------------------------------------ k-aware selection ----

TEST(Selector, WorkloadDefaultMatchesPlainRanking) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(60, 60, 2, 0.4, 0.9, 7));
  const auto plain = rank_candidates(ModelKind::kOverlap, a, p);
  const auto wl = rank_candidates(ModelKind::kOverlap, a, p, Workload{});
  ASSERT_EQ(plain.size(), wl.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].candidate.id(), wl[i].candidate.id());
    EXPECT_DOUBLE_EQ(plain[i].predicted_seconds, wl[i].predicted_seconds);
  }
}

TEST(Selector, RankCostsMatchesRankCandidatesForEveryModel) {
  // One set of costs ranked per model and workload equals a fresh
  // ranking of the matrix; MEM drops the simd costs (§V-B).
  const MachineProfile p = synthetic_profile(10e9, 2e-9, 0.3);
  const Csr<float> a = Csr<float>::from_coo(
      random_blocky_coo<float>(61, 59, 3, 0.4, 0.8, 11));
  const auto costs = all_candidate_costs(a, model_candidates(true));
  for (ModelKind m :
       {ModelKind::kMem, ModelKind::kMemComp, ModelKind::kOverlap})
    for (const Workload wl : {Workload{}, Workload{4}}) {
      const auto want = rank_candidates(m, a, p, wl);
      const auto got = rank_costs(m, costs, p, Precision::kSingle, wl);
      ASSERT_EQ(got.size(), want.size()) << model_name(m);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].candidate.id(), want[i].candidate.id());
        EXPECT_EQ(got[i].predicted_seconds, want[i].predicted_seconds);
      }
    }
}

TEST(Selector, KAwareRankingUsesSpmmPredictions) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(60, 60, 2, 0.4, 0.9, 7));
  const Workload wl{8};
  const auto ranked = rank_candidates(ModelKind::kOverlap, a, p, wl);
  ASSERT_FALSE(ranked.empty());
  // Every prediction must equal predict_spmm for that candidate — the
  // k-aware path amortises the x/matrix streams over 8 vectors, so the
  // per-multiply times sit below the k=1 predictions.
  const auto costs =
      all_candidate_costs(a, model_candidates(true));
  for (const auto& r : ranked) {
    const auto it = std::find_if(costs.begin(), costs.end(),
                                 [&](const CandidateCost& c) {
                                   return c.candidate.id() == r.candidate.id();
                                 });
    ASSERT_NE(it, costs.end());
    EXPECT_DOUBLE_EQ(r.predicted_seconds,
                     predict_spmm(ModelKind::kOverlap, *it, p,
                                  Precision::kDouble, 8));
    EXPECT_LE(r.predicted_seconds / 8,
              predict(ModelKind::kOverlap, *it, p, Precision::kDouble) +
                  1e-15);
  }
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].predicted_seconds, ranked[i].predicted_seconds);
}

TEST(Selector, KAwareSelectionCanDisagreeWithSingleVector) {
  // select_best with a Workload is the same candidate as the front of
  // the k-aware ranking (and a valid candidate either way).
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(80, 80, 4, 0.5, 1.01, 11));
  const Workload wl{16};
  const auto best = select_best(ModelKind::kOverlap, a, p, wl);
  const auto ranked = rank_candidates(ModelKind::kOverlap, a, p, wl);
  EXPECT_EQ(best.candidate.id(), ranked.front().candidate.id());
}

TEST(Selector, RejectsNonPositiveWorkload) {
  const MachineProfile p = synthetic_profile();
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(20, 20, 2, 0.4, 0.9, 13));
  EXPECT_ANY_THROW(
      rank_candidates(ModelKind::kOverlap, a, p, Workload{0}));
}

TEST(Selector, MemCompPenalisesManyBlocks) {
  // Give blocks a huge per-block time: MEMCOMP must fall back to the
  // candidate with the fewest blocks even if ws is larger.
  MachineProfile p = synthetic_profile(1e12, 1e-6, 1.0);
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(64, 64, 8, 0.4, 1.01, 5));
  const auto best = select_best(ModelKind::kMemComp, a, p);
  // The fewest-blocks candidate is a large blocked shape, never CSR
  // (nb = nnz) — and never a 1xN shape with tiny blocks.
  EXPECT_NE(best.candidate.kind, FormatKind::kCsr);
}

}  // namespace
}  // namespace bspmv
