// Tests for the bench-harness substrate (shared flags, sweep cache,
// per-format aggregation) — the machinery every table/figure bench runs
// through.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "bench/harness.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv::bench {
namespace {

// Three batches at min, 2·min and 4·min: median 2·min, IQR 1.5·min.
Samples batches_from(double min) {
  return summarize({min, 2.0 * min, 4.0 * min});
}

BenchConfig parse_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  CliParser cli;
  add_common_flags(cli);
  const bool ok = cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(ok);
  auto cfg = parse_common(cli);
  EXPECT_TRUE(cfg.has_value());
  return *cfg;
}

TEST(BenchFlags, DefaultsAndOverrides) {
  const BenchConfig def = parse_args({});
  EXPECT_EQ(def.scale, SuiteScale::kSmall);
  EXPECT_EQ(def.measure.iterations, 10);
  EXPECT_TRUE(def.matrix_ids.empty());
  EXPECT_FALSE(def.no_cache);

  const BenchConfig cfg = parse_args(
      {"--scale", "tiny", "--iters", "3", "--matrices", "1,5,30",
       "--no-cache", "--cache", "/tmp/x.json"});
  EXPECT_EQ(cfg.scale, SuiteScale::kTiny);
  EXPECT_EQ(cfg.measure.iterations, 3);
  ASSERT_EQ(cfg.matrix_ids.size(), 3u);
  EXPECT_EQ(cfg.matrix_ids[2], 30);
  EXPECT_TRUE(cfg.no_cache);
  EXPECT_EQ(cfg.cache_path, "/tmp/x.json");
}

TEST(BenchFlags, RejectsBadMatrixIds) {
  CliParser cli;
  add_common_flags(cli);
  const char* argv[] = {"prog", "--matrices", "0,5"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(parse_common(cli), invalid_argument_error);
}

TEST(SweepKeys, EncodeEveryDimension) {
  const BenchConfig cfg = parse_args({"--scale", "paper", "--iters", "7"});
  const std::string k =
      sweep_key(cfg, 12, Precision::kSingle, "bcsr_2x2_simd", 4);
  EXPECT_EQ(k, "paper/12/sp/bcsr_2x2_simd/t4/i7");
  // Distinct dimensions -> distinct keys.
  EXPECT_NE(k, sweep_key(cfg, 12, Precision::kDouble, "bcsr_2x2_simd", 4));
  EXPECT_NE(k, sweep_key(cfg, 13, Precision::kSingle, "bcsr_2x2_simd", 4));
  EXPECT_NE(k, sweep_key(cfg, 12, Precision::kSingle, "bcsr_2x2_simd", 2));
}

TEST(SweepCacheTest, PersistsAcrossInstances) {
  const std::string path = ::testing::TempDir() + "/bspmv_sweep_test.json";
  std::remove(path.c_str());
  {
    SweepCache c(path, /*disabled=*/false);
    EXPECT_FALSE(c.get("a/b").has_value());
    c.put("a/b", batches_from(1.5e-3));
    c.put("a/c", batches_from(2.5e-3));
    c.save();
  }
  {
    SweepCache c(path, false);
    ASSERT_TRUE(c.get("a/b").has_value());
    EXPECT_DOUBLE_EQ(c.get("a/b")->min, 1.5e-3);
    EXPECT_DOUBLE_EQ(c.get("a/b")->median, 3.0e-3);
    EXPECT_DOUBLE_EQ(c.get("a/b")->iqr, 2.25e-3);
    EXPECT_DOUBLE_EQ(c.get("a/c")->min, 2.5e-3);
  }
  std::remove(path.c_str());
}

TEST(SweepCacheTest, DisabledCacheStoresNothing) {
  const std::string path = ::testing::TempDir() + "/bspmv_sweep_off.json";
  std::remove(path.c_str());
  SweepCache c(path, /*disabled=*/true);
  c.put("k", batches_from(1.0));
  c.save();
  EXPECT_FALSE(c.get("k").has_value());
  std::ifstream f(path);
  EXPECT_FALSE(f.good());  // nothing written
}

TEST(SweepCacheTest, CorruptFileIsIgnoredNotFatal) {
  const std::string path = ::testing::TempDir() + "/bspmv_sweep_bad.json";
  {
    std::ofstream f(path);
    f << "{not json";
  }
  SweepCache c(path, false);
  EXPECT_FALSE(c.get("anything").has_value());
  c.put("k", batches_from(2.0));
  c.save();  // must be able to overwrite the corrupt file
  SweepCache c2(path, false);
  EXPECT_DOUBLE_EQ(c2.get("k")->min, 2.0);
  std::remove(path.c_str());
}

TEST(SweepCacheTest, TornWriteIsDetectedByChecksumAndIgnored) {
  const std::string path = ::testing::TempDir() + "/bspmv_sweep_torn.json";
  std::remove(path.c_str());
  {
    SweepCache c(path, false);
    c.put("a/b", batches_from(3.5e-3));
    c.save();
  }
  // Simulate a kill mid-write with no atomic protocol: truncate the
  // saved (checksummed) file so the trailer no longer matches.
  {
    std::ifstream in(path, std::ios::binary);
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    ASSERT_NE(raw.find("#bspmv-crc32:"), std::string::npos);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << raw.substr(0, raw.size() / 2);
  }
  // The torn cache must be detected (checksum mismatch), warned about and
  // discarded — the bench re-measures instead of using half a cache.
  SweepCache c(path, false);
  EXPECT_FALSE(c.get("a/b").has_value());
  c.put("a/b", batches_from(4.5e-3));
  c.save();
  SweepCache c2(path, false);
  EXPECT_DOUBLE_EQ(c2.get("a/b")->min, 4.5e-3);
  std::remove(path.c_str());
}

TEST(SweepCacheTest, SchemaTwoFileIsIgnoredAndRemeasured) {
  // A schema-2 cache held one bare minimum per key, with no median or
  // IQR for compare(): it must be ignored, not half-read.
  const std::string path = ::testing::TempDir() + "/bspmv_sweep_v2.json";
  {
    std::ofstream f(path);
    f << "{\"__schema_version\": 2, \"a/b\": 1.5e-3}";
  }
  SweepCache c(path, false);
  EXPECT_FALSE(c.get("a/b").has_value());
  c.put("a/b", batches_from(2.5e-3));
  c.save();
  SweepCache c2(path, false);
  EXPECT_DOUBLE_EQ(c2.get("a/b")->min, 2.5e-3);
  EXPECT_DOUBLE_EQ(c2.get("a/b")->median, 5.0e-3);
  std::remove(path.c_str());
}

TEST(BestPerFormat, TakesMinimumAcrossShapes) {
  const std::vector<Candidate> cands = {
      Candidate{},  // csr_scalar
      Candidate{FormatKind::kBcsr, BlockShape{2, 2}, 0, Impl::kScalar},
      Candidate{FormatKind::kBcsr, BlockShape{4, 1}, 0, Impl::kScalar},
  };
  const std::map<std::string, Samples> secs = {
      {"csr_scalar", batches_from(3.0)},
      {"bcsr_2x2_scalar", batches_from(2.0)},
      {"bcsr_4x1_scalar", batches_from(1.0)}};
  const auto best = best_per_format(cands, secs);
  EXPECT_DOUBLE_EQ(best.at(FormatKind::kCsr), 3.0);
  EXPECT_DOUBLE_EQ(best.at(FormatKind::kBcsr), 1.0);
}

TEST(BestPerFormat, SkipsUnmeasuredCandidates) {
  const std::vector<Candidate> cands = {
      Candidate{},
      Candidate{FormatKind::kVbl, BlockShape{1, 1}, 0, Impl::kScalar}};
  const std::map<std::string, Samples> secs = {
      {"csr_scalar", batches_from(1.0)}};
  const auto best = best_per_format(cands, secs);
  EXPECT_EQ(best.count(FormatKind::kVbl), 0u);
}

TEST(SweepMatrix, UsesAndFillsCache) {
  const std::string path = ::testing::TempDir() + "/bspmv_sweep_m.json";
  std::remove(path.c_str());
  BenchConfig cfg = parse_args({"--iters", "2", "--reps", "1",
                                "--cache", path.c_str()});
  const Csr<double> a = Csr<double>::from_coo(
      bspmv::testing::random_blocky_coo<double>(120, 120, 2, 0.3, 0.9, 1));
  const std::vector<Candidate> cands = {
      Candidate{},
      Candidate{FormatKind::kBcsr, BlockShape{2, 2}, 0, Impl::kSimd}};

  SweepCache cache(path, false);
  const auto first = sweep_matrix(a, 99, cands, cfg, cache);
  ASSERT_EQ(first.size(), 2u);
  for (const auto& [id, t] : first) EXPECT_GT(t.min, 0.0) << id;
  // Second call must return identical (cached) numbers.
  const auto second = sweep_matrix(a, 99, cands, cfg, cache);
  for (const auto& [id, t] : first) {
    EXPECT_DOUBLE_EQ(second.at(id).min, t.min) << id;
    EXPECT_DOUBLE_EQ(second.at(id).median, t.median) << id;
    EXPECT_DOUBLE_EQ(second.at(id).iqr, t.iqr) << id;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bspmv::bench
