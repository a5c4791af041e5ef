// Working-set accounting tests: the model-side cost structure must agree
// EXACTLY with the materialised formats' own working_set_bytes() — the
// strongest possible check that eq. (1)-(3) see the right ws and nb.
#include <gtest/gtest.h>

#include "src/core/executor.hpp"
#include "src/core/working_set.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_coo;

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
