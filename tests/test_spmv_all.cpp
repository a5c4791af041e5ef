// Integration property sweep: EVERY candidate in the bench space
// (format × shape × impl), materialised via AnyFormat, must match the COO
// reference on matrices with different structural characters.
#include <gtest/gtest.h>

#include <set>

#include "src/core/engine.hpp"
#include "src/core/executor.hpp"
#include "src/gen/generators.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::check_against_reference;

struct MatrixCase {
  std::string name;
  Coo<double> coo;
};

// A small zoo covering the structural classes of the suite.
std::vector<MatrixCase> matrix_zoo() {
  std::vector<MatrixCase> zoo;
  zoo.push_back({"random", bspmv::testing::random_coo<double>(61, 57, 0.07, 1)});
  zoo.push_back({"blocky", bspmv::testing::random_blocky_coo<double>(
                               60, 66, 3, 0.25, 0.85, 2)});
  zoo.push_back({"stencil", gen_stencil_2d<double>(9, 8, 9, 3)});
  zoo.push_back({"diagonal", gen_multi_diagonal<double>(
                                 73, {-3, -1, 0, 1, 4}, 4)});
  zoo.push_back({"segments", gen_row_segments<double>(31, 120, 2, 4, 3, 9, 5)});
  zoo.push_back({"shortrows", gen_short_rows<double>(97, 0, 3, 6)});
  return zoo;
}

class AllCandidates : public ::testing::TestWithParam<Candidate> {};

TEST_P(AllCandidates, DoubleMatchesReferenceOnZoo) {
  const Candidate c = GetParam();
  for (const auto& mc : matrix_zoo()) {
    const Csr<double> a = Csr<double>::from_coo(mc.coo);
    const AnyFormat<double> f = AnyFormat<double>::convert(a, c);
    EXPECT_EQ(f.rows(), a.rows());
    EXPECT_EQ(f.cols(), a.cols());
    EXPECT_GT(f.working_set_bytes(), 0u);
    check_against_reference<double>(
        mc.coo, [&](const double* x, double* y) { f.run(x, y); },
        c.id() + " on " + mc.name);
  }
}

TEST_P(AllCandidates, FloatMatchesReferenceOnRandom) {
  const Candidate c = GetParam();
  const Coo<float> coo = bspmv::testing::random_coo<float>(58, 49, 0.08, 21);
  const Csr<float> a = Csr<float>::from_coo(coo);
  const AnyFormat<float> f = AnyFormat<float>::convert(a, c);
  check_against_reference<float>(
      coo, [&](const float* x, float* y) { f.run(x, y); }, c.id());
}

std::vector<Candidate> full_candidate_space() {
  std::vector<Candidate> all = bench_candidates(true);
  const auto ext = extension_candidates(true);
  all.insert(all.end(), ext.begin(), ext.end());
  return all;
}

INSTANTIATE_TEST_SUITE_P(BenchSpace, AllCandidates,
                         ::testing::ValuesIn(full_candidate_space()),
                         [](const auto& info) { return info.param.id(); });

TEST(CandidateIds, AreUniqueAndStable) {
  const auto cands = full_candidate_space();
  std::set<std::string> ids;
  for (const auto& c : cands) ids.insert(c.id());
  EXPECT_EQ(ids.size(), cands.size());
  // Spot-check the naming scheme documented in the header.
  EXPECT_EQ(Candidate{}.id(), "csr_scalar");
  EXPECT_EQ((Candidate{FormatKind::kBcsrDec, BlockShape{3, 2}, 0,
                       Impl::kSimd})
                .id(),
            "bcsr_dec_3x2_simd");
  EXPECT_EQ((Candidate{FormatKind::kBcsdDec, BlockShape{1, 1}, 4,
                       Impl::kScalar})
                .kernel_id(),
            "bcsd_4_scalar");
}

TEST(CandidateSpace, MatchesPaperCounts) {
  // BCSR shapes with r*c <= 8 excluding 1x1 (that is CSR): r=1 gives 7,
  // r=2 gives 4, r=3/4 give 2 each, r=5..8 give 1 each -> 19 shapes.
  EXPECT_EQ(bcsr_shapes().size(), 19u);
  EXPECT_EQ(bcsd_sizes().size(), 7u);
  // CSR + 19*2 (BCSR, BCSR-DEC) + 7*2 (BCSD, BCSD-DEC) = 53 per impl.
  EXPECT_EQ(model_candidates(false).size(), 53u);
  EXPECT_EQ(model_candidates(true).size(), 106u);
  // Bench space adds scalar 1D-VBL.
  EXPECT_EQ(bench_candidates(true).size(), 107u);
  // Extension: UBCSR at 19 shapes x 2 impls.
  EXPECT_EQ(extension_candidates(true).size(), 38u);
  EXPECT_EQ(extension_candidates(false).size(), 19u);
  // Every ranked candidate has a threaded driver, so any selection can
  // back a threaded engine.
  const Csr<double> a =
      Csr<double>::from_coo(bspmv::testing::random_coo<double>(40, 36, 0.1, 5));
  for (const Candidate& c : model_candidates(true)) {
    const SpmvEngine<double> e = SpmvEngine<double>::prepare(a, c, 2);
    EXPECT_EQ(e.threads(), 2) << c.id();
    EXPECT_EQ(e.format().candidate(), c);
  }
}

}  // namespace
}  // namespace bspmv
