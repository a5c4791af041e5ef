// Executor tests: measurement plumbing produces positive, ordered-sane
// timings; threaded measurement matches the format constraints; the
// selector + executor round trip (select, materialise, run) works
// end-to-end with a real (micro) machine profile.
#include <gtest/gtest.h>

#include "src/core/executor.hpp"
#include "src/core/selector.hpp"
#include "src/profile/block_profiler.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::random_blocky_coo;

MeasureOptions fast_opts() {
  MeasureOptions o;
  o.iterations = 3;
  o.reps = 1;
  o.warmup = 1;
  return o;
}

TEST(Executor, MeasureReturnsPositiveSeconds) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(200, 200, 2, 0.2, 0.9, 1));
  const std::vector<Candidate> cands = {
      Candidate{},  // csr_scalar
      Candidate{FormatKind::kBcsr, BlockShape{2, 2}, 0, Impl::kSimd},
      Candidate{FormatKind::kBcsdDec, BlockShape{1, 1}, 4, Impl::kScalar},
      Candidate{FormatKind::kVbl, BlockShape{1, 1}, 0, Impl::kScalar},
  };
  const auto measured = measure_candidates(a, cands, fast_opts());
  ASSERT_EQ(measured.size(), cands.size());
  for (const auto& m : measured) {
    EXPECT_GT(m.seconds, 0.0) << m.candidate.id();
    EXPECT_LT(m.seconds, 1.0) << m.candidate.id();
  }
}

TEST(Executor, ThreadedMeasurementWorksForParallelFormats) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(150, 150, 3, 0.25, 0.85, 2));
  for (const Candidate& c : {
           Candidate{},
           Candidate{FormatKind::kBcsr, BlockShape{3, 2}, 0, Impl::kScalar},
           Candidate{FormatKind::kBcsd, BlockShape{1, 1}, 3, Impl::kSimd},
           Candidate{FormatKind::kBcsrDec, BlockShape{2, 2}, 0, Impl::kScalar},
           Candidate{FormatKind::kBcsdDec, BlockShape{1, 1}, 2, Impl::kScalar},
       }) {
    for (int threads : {1, 2}) {
      EXPECT_GT(measure_threaded_seconds(a, c, threads, fast_opts()), 0.0)
          << c.id();
    }
  }
}

TEST(Executor, ThreadedMeasurementRejectsVbl) {
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(50, 50, 2, 0.3, 0.8, 3));
  EXPECT_THROW(
      measure_threaded_seconds(
          a, Candidate{FormatKind::kVbl, BlockShape{1, 1}, 0, Impl::kScalar},
          2, fast_opts()),
      invalid_argument_error);
}

TEST(Executor, EmptyAnyFormatThrows) {
  const AnyFormat<double> f;
  EXPECT_THROW(f.rows(), invalid_argument_error);
  EXPECT_THROW(f.working_set_bytes(), invalid_argument_error);
}

TEST(EndToEnd, SelectMaterialiseRunWithMicroProfile) {
  // Real micro profile (tiny caches) + real matrix: the full autotuning
  // path a library user follows.
  ProfileOptions popt;
  popt.detect_cache = false;
  popt.cache.l1d_bytes = 8 * 1024;
  popt.cache.llc_bytes = 64 * 1024;
  popt.bandwidth_bps = 5e9;
  popt.quick = true;
  const MachineProfile profile = profile_machine(popt);

  const Coo<double> coo = random_blocky_coo<double>(128, 128, 3, 0.4, 1.01, 4);
  const Csr<double> a = Csr<double>::from_coo(coo);

  for (ModelKind model :
       {ModelKind::kMem, ModelKind::kMemComp, ModelKind::kOverlap}) {
    const RankedCandidate best = select_best(model, a, profile);
    EXPECT_GT(best.predicted_seconds, 0.0) << model_name(model);
    const AnyFormat<double> f = AnyFormat<double>::convert(a, best.candidate);
    bspmv::testing::check_against_reference<double>(
        coo, [&](const double* x, double* y) { f.run(x, y); },
        std::string("selected by ") + model_name(model));
  }
}

}  // namespace
}  // namespace bspmv
