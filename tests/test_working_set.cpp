// Working-set accounting tests: the model-side cost structure must agree
// EXACTLY with the materialised formats' own working_set_bytes() — the
// strongest possible check that eq. (1)-(3) see the right ws and nb.
#include <gtest/gtest.h>

#include <thread>

#include "src/core/executor.hpp"
#include "src/core/selector.hpp"
#include "src/core/working_set.hpp"
#include "src/gen/suite.hpp"
#include "src/observe/registry.hpp"
#include "src/parallel/task_pool.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;
using bspmv::testing::raw_csr;
using bspmv::testing::synthetic_profile;

class CostVsMaterialised : public ::testing::TestWithParam<Candidate> {};

TEST_P(CostVsMaterialised, WsAndNbMatchExactly) {
  const Candidate c = GetParam();
  for (std::uint64_t seed : {1u, 9u}) {
    const Csr<double> a = Csr<double>::from_coo(
        random_blocky_coo<double>(66, 58, 3, 0.3, 0.8, seed));
    const CandidateCost cost = candidate_cost(a, c);
    const AnyFormat<double> f = AnyFormat<double>::convert(a, c);
    EXPECT_EQ(cost.total_ws(), f.working_set_bytes()) << c.id();

    // nb check per format kind.
    std::size_t nb_total = 0;
    for (const auto& p : cost.parts) nb_total += p.nb;
    switch (c.kind) {
      case FormatKind::kCsr:
        EXPECT_EQ(nb_total, a.nnz());
        break;
      case FormatKind::kBcsr:
        EXPECT_EQ(nb_total, Bcsr<double>::from_csr(a, c.shape).blocks());
        break;
      case FormatKind::kBcsd:
        EXPECT_EQ(nb_total, Bcsd<double>::from_csr(a, c.b).blocks());
        break;
      case FormatKind::kBcsrDec: {
        const BcsrDec<double> m = BcsrDec<double>::from_csr(a, c.shape);
        ASSERT_EQ(cost.parts.size(), 2u);
        EXPECT_EQ(cost.parts[0].nb, m.blocked().blocks());
        EXPECT_EQ(cost.parts[1].nb, m.remainder().nnz());
        break;
      }
      case FormatKind::kBcsdDec: {
        const BcsdDec<double> m = BcsdDec<double>::from_csr(a, c.b);
        ASSERT_EQ(cost.parts.size(), 2u);
        EXPECT_EQ(cost.parts[0].nb, m.blocked().blocks());
        EXPECT_EQ(cost.parts[1].nb, m.remainder().nnz());
        break;
      }
      case FormatKind::kVbl:
        EXPECT_EQ(nb_total, Vbl<double>::from_csr(a).blocks());
        break;
      case FormatKind::kUbcsr:
        EXPECT_EQ(nb_total, Ubcsr<double>::from_csr(a, c.shape).blocks());
        break;
    }
  }
}

std::vector<Candidate> cost_candidate_space() {
  std::vector<Candidate> all = bench_candidates(true);
  const auto ext = extension_candidates(true);
  all.insert(all.end(), ext.begin(), ext.end());
  return all;
}

INSTANTIATE_TEST_SUITE_P(BenchSpace, CostVsMaterialised,
                         ::testing::ValuesIn(cost_candidate_space()),
                         [](const auto& info) { return info.param.id(); });

TEST(CandidateCost, DecKernelIdsSplitCorrectly) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(40, 40, 2, 0.4, 0.9, 3));
  const Candidate c{FormatKind::kBcsrDec, BlockShape{2, 2}, 0, Impl::kSimd};
  const CandidateCost cost = candidate_cost(a, c);
  ASSERT_EQ(cost.parts.size(), 2u);
  EXPECT_EQ(cost.parts[0].kernel_id, "bcsr_2x2_simd");
  EXPECT_EQ(cost.parts[1].kernel_id, "csr_simd");
}

TEST(CandidateCost, FloatUsesSmallerValueBytes) {
  const Csr<double> ad =
      Csr<double>::from_coo(random_coo<double>(50, 50, 0.1, 4));
  const Csr<float> af = Csr<float>::from_coo(random_coo<float>(50, 50, 0.1, 4));
  ASSERT_EQ(ad.nnz(), af.nnz());
  const Candidate c{};  // csr_scalar
  EXPECT_GT(candidate_cost(ad, c).total_ws(),
            candidate_cost(af, c).total_ws());
}

TEST(CandidateCost, AllCostsSharedScanMatchesIndividual) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(45, 45, 3, 0.3, 0.7, 5));
  const auto cands = model_candidates(true);
  const auto all = all_candidate_costs(a, cands);
  ASSERT_EQ(all.size(), cands.size());
  for (std::size_t i = 0; i < cands.size(); i += 13) {
    const CandidateCost one = candidate_cost(a, cands[i]);
    EXPECT_EQ(one.total_ws(), all[i].total_ws()) << cands[i].id();
    ASSERT_EQ(one.parts.size(), all[i].parts.size());
    for (std::size_t p = 0; p < one.parts.size(); ++p)
      EXPECT_EQ(one.parts[p].nb, all[i].parts[p].nb);
  }
}

TEST(CandidateCost, CachedCostsEqualUncachedFieldForField) {
  // Every candidate, every field: the shared per-shape scans of
  // all_candidate_costs must reproduce the one-candidate path exactly.
  // Odd dimensions leave partial bands and block columns for every shape.
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(71, 67, 3, 0.3, 0.8, 17));
  const auto cands = model_candidates(true);
  const auto all = all_candidate_costs(a, cands);
  ASSERT_EQ(all.size(), cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const CandidateCost one = candidate_cost(a, cands[i]);
    EXPECT_EQ(all[i].candidate.id(), one.candidate.id());
    EXPECT_EQ(all[i].xy_bytes, one.xy_bytes) << cands[i].id();
    ASSERT_EQ(all[i].parts.size(), one.parts.size()) << cands[i].id();
    for (std::size_t p = 0; p < one.parts.size(); ++p) {
      EXPECT_EQ(all[i].parts[p].kernel_id, one.parts[p].kernel_id);
      EXPECT_EQ(all[i].parts[p].ws_bytes, one.parts[p].ws_bytes)
          << cands[i].id() << " part " << p;
      EXPECT_EQ(all[i].parts[p].nb, one.parts[p].nb)
          << cands[i].id() << " part " << p;
    }
  }
}

// ---- parallel scans: all_candidate_costs runs fused scans, one pool task
// per band height and row chunk

void expect_parallel_equals_single(const Csr<double>& a,
                                   const std::string& what) {
  // model_candidates lists the scalar candidates, then the same ones in
  // simd. A simd candidate's single cost is its scalar twin's with the
  // simd kernel ids, which saves half the single-candidate scans.
  const auto cands = model_candidates(true);
  const std::size_t half = cands.size() / 2;
  const auto all = all_candidate_costs(a, cands);
  ASSERT_EQ(all.size(), cands.size()) << what;
  std::vector<CandidateCost> scalar;
  for (std::size_t i = 0; i < half; ++i)
    scalar.push_back(candidate_cost(a, cands[i]));
  for (std::size_t i = 0; i < cands.size(); ++i) {
    CandidateCost one = scalar[i % half];
    if (i >= half) {
      Candidate twin = cands[i];
      twin.impl = Impl::kScalar;
      ASSERT_EQ(twin, one.candidate) << what;
      one.candidate = cands[i];
      one.parts[0].kernel_id = cands[i].kernel_id();
      if (one.parts.size() == 2)
        one.parts[1].kernel_id = csr_kernel_id(Impl::kSimd);
    }
    const std::string id = what + " " + cands[i].id();
    EXPECT_EQ(all[i].candidate.id(), one.candidate.id()) << id;
    EXPECT_EQ(all[i].xy_bytes, one.xy_bytes) << id;
    ASSERT_EQ(all[i].parts.size(), one.parts.size()) << id;
    for (std::size_t p = 0; p < one.parts.size(); ++p) {
      EXPECT_EQ(all[i].parts[p].kernel_id, one.parts[p].kernel_id) << id;
      EXPECT_EQ(all[i].parts[p].ws_bytes, one.parts[p].ws_bytes) << id;
      EXPECT_EQ(all[i].parts[p].nb, one.parts[p].nb) << id;
    }
  }
}

void expect_same_ranking(const std::vector<RankedCandidate>& got,
                         const std::vector<RankedCandidate>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].candidate.id(), want[i].candidate.id()) << what;
    // Bitwise: the statistics are integer counts, whoever scans them.
    EXPECT_EQ(got[i].predicted_seconds, want[i].predicted_seconds) << what;
  }
}

TEST(CandidateCost, ParallelScansMatchSingleCandidateOnTinySuite) {
  for (const SuiteMatrixInfo& m : suite_catalog())
    expect_parallel_equals_single(
        build_suite_csr<double>(m.id, SuiteScale::kTiny),
        "suite #" + std::to_string(m.id));
}

TEST(CandidateCost, ParallelScansMatchSingleCandidateOnAdversarialShapes) {
  // The StatsAdversarial shapes (test_stats.cpp): empty matrices, one
  // row of 2^20 columns, rows % 8 != 0 with unsorted and duplicate
  // columns, and BCSD keys below a band's first-row diagonal.
  for (const auto& [name, a] : bspmv::testing::adversarial_csrs())
    expect_parallel_equals_single(a, name);
}

TEST(CandidateCost, ParallelScansMatchSingleCandidateAtChunkEdges) {
  // 1, 839, 840, 841, 1681 and 2521 rows: the fused scans' row chunks
  // (multiples of 840 rows) end inside, at and just past the matrix.
  for (const auto& [name, a] : bspmv::testing::chunk_edge_csrs())
    expect_parallel_equals_single(a, name);
}

TEST(CandidateCost, ParallelScansRankIdenticallyFromConcurrentThreads) {
  // Four rankings at once: one holds the shared pool, the others find it
  // busy and scan inline; every one must match a ranking made alone.
  const Csr<double> a = build_suite_csr<double>(21, SuiteScale::kTiny);
  const MachineProfile p = synthetic_profile();
  const auto want = rank_candidates(ModelKind::kOverlap, a, p);
  std::vector<std::vector<RankedCandidate>> got(4);
  std::vector<std::thread> threads;
  for (auto& g : got)
    threads.emplace_back(
        [&] { g = rank_candidates(ModelKind::kOverlap, a, p); });
  for (std::thread& t : threads) t.join();
  for (const auto& g : got) expect_same_ranking(g, want, "concurrent");
}

TEST(CandidateCost, ParallelScansRankIdenticallyInsidePoolTask) {
  // A ranking made from a running task of the pool it would use runs its
  // scans inline (TaskPool::run on a busy pool).
  class RankJob final : public TaskPool::Job {
   public:
    RankJob(int workers, const Csr<double>& a, const MachineProfile& p)
        : home_(static_cast<std::size_t>(workers) + 1, 1), a_(a), p_(p) {
      home_[0] = 0;
    }
    std::span<const std::uint32_t> home() const override { return home_; }
    bool steal() const override { return false; }
    std::size_t run_task(std::uint32_t, int) override {
      ranked = rank_candidates(ModelKind::kOverlap, a_, p_);
      return 1;
    }
    void finish(std::span<const TaskPool::WorkerLoad>) override {}
    std::vector<RankedCandidate> ranked;

   private:
    std::vector<std::uint32_t> home_;
    const Csr<double>& a_;
    const MachineProfile& p_;
  };
  const Csr<double> a = build_suite_csr<double>(26, SuiteScale::kTiny);
  const MachineProfile p = synthetic_profile();
  const auto want = rank_candidates(ModelKind::kOverlap, a, p);
  const auto pool = TaskPool::shared(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  const std::uint64_t inline_before = pool->stats().inline_runs;
  RankJob job(pool->workers(), a, p);
  pool->run(job);
  expect_same_ranking(job.ranked, want, "inside a pool task");
  if (pool->workers() > 1) {
    EXPECT_GT(pool->stats().inline_runs, inline_before);
  }
}

TEST(CandidateCost, ParallelScansCountTwentySixPerRanking) {
  // One scan per BCSR shape (19) and BCSD size (7), wherever it runs
  // (an OFF build records nothing).
  auto& reg = observe::CounterRegistry::instance();
  observe::set_enabled(true);
  const Csr<double> a = build_suite_csr<double>(20, SuiteScale::kTiny);
  const MachineProfile p = synthetic_profile();
  for (const ModelKind m : {ModelKind::kMem, ModelKind::kOverlap}) {
    reg.reset();
    (void)rank_candidates(m, a, p);
    const auto counters = reg.snapshot().counters;
    if (observe::kHooksEnabled) {
      EXPECT_EQ(counters.at("select.stats_scans"), 26u) << model_name(m);
    } else {
      EXPECT_EQ(counters.count("select.stats_scans"), 0u);
    }
  }
  reg.reset();
}

TEST(CandidateCost, BlockingShrinksIndexStructures) {
  // On a perfectly blocky matrix, BCSR 2x2 must have a smaller ws than
  // CSR (4 values share one block index) — §III's core claim.
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(64, 64, 2, 0.5, 1.01, 6));
  const auto csr_ws = candidate_cost(a, Candidate{}).total_ws();
  const auto bcsr_ws =
      candidate_cost(a, Candidate{FormatKind::kBcsr, BlockShape{2, 2}, 0,
                                  Impl::kScalar})
          .total_ws();
  EXPECT_LT(bcsr_ws, csr_ws);
}

}  // namespace
}  // namespace bspmv
