// Tests for the observability subsystem (src/observe/): span nesting,
// counter aggregation across threads, the runtime master switch,
// RunReport JSON round-tripping and validation, trajectory files, and
// the guarantee that a BSPMV_OBSERVE=OFF build keeps the registry empty
// while running instrumented library code.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/selector.hpp"
#include "src/formats/decomposed.hpp"
#include "src/observe/observe.hpp"
#include "src/observe/report.hpp"
#include "src/util/errors.hpp"
#include "src/util/timing.hpp"
#include "tests/test_helpers.hpp"

using namespace bspmv;
using namespace bspmv::observe;
using bspmv::testing::random_blocky_coo;
using bspmv::testing::synthetic_profile;

namespace {

/// Every test starts from an empty, enabled registry and leaves it that
/// way, so tests do not observe each other's telemetry.
class ObserveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    CounterRegistry::instance().reset();
  }
  void TearDown() override {
    CounterRegistry::instance().reset();
    set_enabled(true);
  }
};

TEST_F(ObserveTest, SpanRecordsUnderItsName) {
  { Span s("phase"); }
  const Snapshot snap = CounterRegistry::instance().snapshot();
  ASSERT_EQ(snap.spans.count("phase"), 1u);
  EXPECT_EQ(snap.spans.at("phase").calls, 1u);
  EXPECT_GE(snap.spans.at("phase").seconds, 0.0);
}

TEST_F(ObserveTest, SpansNestIntoSlashPaths) {
  {
    Span outer("outer");
    EXPECT_EQ(outer.path(), "outer");
    {
      Span inner("inner");
      EXPECT_EQ(inner.path(), "outer/inner");
    }
    { Span again("inner"); }  // same path accumulates, calls = 2
  }
  { Span outer("outer"); }

  const Snapshot snap = CounterRegistry::instance().snapshot();
  ASSERT_EQ(snap.spans.count("outer"), 1u);
  ASSERT_EQ(snap.spans.count("outer/inner"), 1u);
  EXPECT_EQ(snap.spans.at("outer").calls, 2u);
  EXPECT_EQ(snap.spans.at("outer/inner").calls, 2u);
  // The inner path must not leak once its enclosing span closed.
  EXPECT_EQ(snap.spans.count("inner"), 0u);
}

TEST_F(ObserveTest, CountersAggregateAcrossOmpThreads) {
  constexpr int kPerThread = 1000;
  const int threads = 4;
  std::vector<std::thread> pool;
  for (int tid = 0; tid < threads; ++tid)
    pool.emplace_back([tid] {
      for (int i = 0; i < kPerThread; ++i)
        CounterRegistry::instance().add_count("test.events", 1);
      CounterRegistry::instance().add_thread_time("test.metric", tid, 0.25,
                                                  10);
    });
  for (std::thread& t : pool) t.join();

  const Snapshot snap = CounterRegistry::instance().snapshot();
  ASSERT_GE(threads, 1);
  EXPECT_EQ(snap.counters.at("test.events"),
            static_cast<std::uint64_t>(threads) * kPerThread);
  ASSERT_EQ(snap.thread_times.count("test.metric"), 1u);
  const auto& per_tid = snap.thread_times.at("test.metric");
  EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(threads));
  for (const auto& [tid, stat] : per_tid) {
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, threads);
    EXPECT_DOUBLE_EQ(stat.seconds, 0.25);
    EXPECT_EQ(stat.calls, 1u);
    EXPECT_EQ(stat.items, 10u);
  }
}

TEST_F(ObserveTest, RuntimeSwitchStopsCollection) {
  set_enabled(false);
  EXPECT_FALSE(enabled());
  CounterRegistry::instance().add_count("dark", 1);
  { Span s("dark_span"); EXPECT_TRUE(s.path().empty()); }
  set_enabled(true);
  const Snapshot snap = CounterRegistry::instance().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.spans.empty());
}

TEST_F(ObserveTest, DisabledSpansAreCheap) {
  // Not a benchmark — a regression tripwire with a very generous bound:
  // 100k disabled spans must not take anywhere near a second.
  set_enabled(false);
  Timer t;
  for (int i = 0; i < 100000; ++i) { Span s("hot"); }
  EXPECT_LT(t.elapsed(), 1.0);
}

TEST_F(ObserveTest, InstrumentedLibraryCallsMatchBuildConfig) {
  // rank_candidates carries a BSPMV_OBS_SPAN/BSPMV_OBS_COUNT pair. In an
  // OFF build those hooks compile to nothing, so the registry must stay
  // empty; in an ON build they must land. One ranking makes exactly one
  // structural pass per BCSR shape and BCSD size: the padded and the
  // decomposed variant share it.
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(64, 64, 3, 0.3, 0.9, 42));
  const MachineProfile profile = synthetic_profile();
  const auto ranked = rank_candidates(ModelKind::kOverlap, a, profile);
  ASSERT_FALSE(ranked.empty());

  const Snapshot snap = CounterRegistry::instance().snapshot();
  if (kHooksEnabled) {
    EXPECT_EQ(snap.spans.count("rank"), 1u);
    EXPECT_EQ(snap.counters.at("select.candidates_ranked"), ranked.size());
    // 19 BCSR shapes + 7 BCSD sizes.
    EXPECT_EQ(snap.counters.at("select.stats_scans"), 26u);
    // Conversions share the band engine but are not structural scans.
    (void)Bcsr<double>::from_csr(a, BlockShape{2, 2});
    (void)BcsrDec<double>::from_csr(a, BlockShape{3, 1});
    (void)Bcsd<double>::from_csr(a, 2);
    (void)BcsdDec<double>::from_csr(a, 3);
    EXPECT_EQ(CounterRegistry::instance().snapshot().counters.at(
                  "select.stats_scans"),
              26u);
  } else {
    EXPECT_TRUE(snap.spans.empty());
    EXPECT_TRUE(snap.counters.empty());
  }
}

// ------------------------------------------------------------ report ----

RunReport synthetic_report() {
  RunReport r;
  r.matrix_name = "synthetic";
  r.rows = 100;
  r.cols = 100;
  r.nnz = 500;
  r.csr_ws_bytes = 7600;
  r.precision = "dp";
  r.machine_description = "test machine";
  r.bandwidth_bps = 10e9;
  r.hooks_enabled = true;
  r.runtime_enabled = true;
  r.chosen_id = "bcsr_3x3_scalar";
  r.fallback = false;
  r.prepare_failures.emplace_back("bcsr_8x1_scalar", "resource limit");

  CandidateReport c;
  c.id = "bcsr_3x3_scalar";
  c.format = "bcsr";
  c.impl = "scalar";
  c.ws_bytes = 8000;
  c.predicted_seconds = {
      {"mem", 1e-4}, {"memcomp", 1.5e-4}, {"overlap", 1.2e-4}};
  c.measured_seconds = 1.4e-4;
  c.measured = true;
  r.candidates.push_back(c);

  for (const char* m : {"mem", "memcomp", "overlap"}) {
    SelectionReport s;
    s.model = m;
    s.selected_id = "bcsr_3x3_scalar";
    s.predicted_seconds = 1.2e-4;
    s.measured_seconds = 1.4e-4;
    s.best_id = "bcsr_3x3_scalar";
    s.best_seconds = 1.4e-4;
    s.optimal = true;
    s.off_best = 0.0;
    s.model_error = (1.2e-4 - 1.4e-4) / 1.4e-4;
    r.selections.push_back(s);
  }

  r.threads = 2;
  r.thread_samples.push_back(ThreadSample{0, 0.01, 5, 260});
  r.thread_samples.push_back(ThreadSample{1, 0.011, 5, 240});
  r.phases["report"] = SpanStat{0.5, 1};
  r.phases["report/measure"] = SpanStat{0.4, 2};
  r.counters["select.candidates_ranked"] = 107;
  return r;
}

TEST_F(ObserveTest, RunReportJsonRoundTrip) {
  const RunReport r = synthetic_report();
  const Json j = r.to_json();
  const RunReport back = RunReport::from_json(j);
  // Field-exact round trip: re-serialising must reproduce the document.
  EXPECT_EQ(back.to_json(), j);
  EXPECT_EQ(back.matrix_name, "synthetic");
  EXPECT_EQ(back.candidates.size(), 1u);
  EXPECT_EQ(back.selections.size(), 3u);
  EXPECT_EQ(back.thread_samples.size(), 2u);
  EXPECT_EQ(back.prepare_failures.size(), 1u);
  EXPECT_DOUBLE_EQ(
      back.candidates[0].predicted_seconds.at("overlap"), 1.2e-4);
}

TEST_F(ObserveTest, RunReportCsvHasHeaderAndRows) {
  const std::string csv = synthetic_report().to_csv();
  EXPECT_NE(csv.find("id,format,impl,ws_bytes,pred_mem"), std::string::npos);
  EXPECT_NE(csv.find("bcsr_3x3_scalar,bcsr,scalar,8000"), std::string::npos);
}

TEST_F(ObserveTest, ValidatorRejectsBrokenDocuments) {
  const Json good = synthetic_report().to_json();
  EXPECT_NO_THROW(validate_report_json(good));

  Json wrong_kind = good;
  wrong_kind["kind"] = "something_else";
  EXPECT_THROW(validate_report_json(wrong_kind), validation_error);

  Json wrong_schema = good;
  wrong_schema["schema_version"] = RunReport::kSchemaVersion + 1;
  EXPECT_THROW(validate_report_json(wrong_schema), validation_error);

  for (const char* section :
       {"matrix", "machine", "candidates", "selections", "threads"}) {
    Json missing = good;
    missing.as_object().erase(section);
    EXPECT_THROW(validate_report_json(missing), validation_error)
        << "missing section " << section << " must be rejected";
  }

  // A candidate without the three paper models' predictions is useless
  // for the Fig. 3 / Table IV views.
  Json bad_cand = good;
  bad_cand["candidates"].as_array()[0]["predicted"].as_object().erase("mem");
  EXPECT_THROW(validate_report_json(bad_cand), validation_error);

  EXPECT_THROW(RunReport::from_json(wrong_kind), validation_error);
}

TEST_F(ObserveTest, TrajectoryAppendsAndSurvivesCorruption) {
  const std::string path = ::testing::TempDir() + "bspmv_traj_test.json";
  std::remove(path.c_str());

  Json::Object e1;
  e1["run"] = 1;
  append_to_trajectory(path, Json(e1));
  Json::Object e2;
  e2["run"] = 2;
  append_to_trajectory(path, Json(e2));

  std::ifstream f(path);
  ASSERT_TRUE(f);
  std::ostringstream ss;
  ss << f.rdbuf();
  const Json doc = Json::parse(ss.str());
  EXPECT_EQ(doc.at("kind").as_string(), "bspmv_trajectory");
  ASSERT_EQ(doc.at("entries").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("entries").as_array()[1].at("run").as_number(), 2.0);

  // Corrupt the file: the next append warns and restarts rather than
  // throwing or silently keeping garbage (warn-and-regenerate policy).
  { std::ofstream out(path); out << "{not json"; }
  Json::Object e3;
  e3["run"] = 3;
  append_to_trajectory(path, Json(e3));
  std::ifstream f2(path);
  std::ostringstream ss2;
  ss2 << f2.rdbuf();
  const Json doc2 = Json::parse(ss2.str());
  ASSERT_EQ(doc2.at("entries").as_array().size(), 1u);
  EXPECT_DOUBLE_EQ(
      doc2.at("entries").as_array()[0].at("run").as_number(), 3.0);
  std::remove(path.c_str());
}

TEST_F(ObserveTest, BuildRunReportEndToEnd) {
  // The full pipeline on a tiny matrix with a synthetic profile and a
  // minimal measurement budget: structure checks only, no perf claims.
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(96, 96, 3, 0.4, 0.9, 7));
  ReportOptions opt;
  opt.measure.iterations = 1;
  opt.measure.reps = 1;
  opt.measure.warmup = 0;
  opt.threads = 1;
  const RunReport r =
      build_run_report(a, "unit", synthetic_profile(), opt);

  EXPECT_EQ(r.matrix_name, "unit");
  EXPECT_EQ(r.rows, 96);
  EXPECT_FALSE(r.candidates.empty());
  EXPECT_EQ(r.selections.size(), 3u);  // one per model
  EXPECT_FALSE(r.chosen_id.empty());
  for (const CandidateReport& c : r.candidates) {
    ASSERT_EQ(c.predicted_seconds.count("mem"), 1u) << c.id;
    ASSERT_EQ(c.predicted_seconds.count("memcomp"), 1u) << c.id;
    ASSERT_EQ(c.predicted_seconds.count("overlap"), 1u) << c.id;
    EXPECT_TRUE(c.measured || !c.skip_reason.empty()) << c.id;
  }
  EXPECT_NO_THROW(validate_report_json(r.to_json()));
  // Hooks populate phases/thread samples only in an ON build.
  if (kHooksEnabled) {
    EXPECT_FALSE(r.phases.empty());
    EXPECT_FALSE(r.thread_samples.empty());
  } else {
    EXPECT_TRUE(r.phases.empty());
    EXPECT_TRUE(r.thread_samples.empty());
  }
}

TEST_F(ObserveTest, BuildRunReportDistSectionNeverMatchesADeadHeat) {
  // Both modes are timed through one interleaved Measurement; the winner
  // is compare()'s verdict, and "indistinguishable" matches no
  // prediction.
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(96, 96, 3, 0.4, 0.9, 8));
  ReportOptions opt;
  opt.measure.iterations = 1;
  opt.measure.reps = 1;
  opt.measure.warmup = 0;
  opt.threads = 1;
  opt.dist_ranks = 2;
  opt.dist_iterations = 2;
  const RunReport r = build_run_report(a, "unit", synthetic_profile(), opt);

  ASSERT_TRUE(r.dist.enabled);
  ASSERT_EQ(r.dist.modes.size(), 2u);
  EXPECT_EQ(r.dist.modes[0].mode, "naive");
  EXPECT_EQ(r.dist.modes[1].mode, "overlap");
  for (const DistModeReport& m : r.dist.modes) {
    EXPECT_GT(m.measured_seconds, 0.0) << m.mode;
    EXPECT_EQ(m.rank_samples.size(), 2u) << m.mode;
  }
  const std::string& got = r.dist.measured_mode;
  EXPECT_TRUE(got == "naive" || got == "overlap" ||
              got == "indistinguishable")
      << got;
  EXPECT_EQ(r.dist.model_match, got == r.dist.predicted_mode);
  if (got == "indistinguishable") {
    EXPECT_FALSE(r.dist.model_match);
  }

  const Json j = r.to_json();
  EXPECT_EQ(j.at("schema_version").as_number(), 5.0);
  EXPECT_NO_THROW(validate_report_json(j));
  EXPECT_EQ(RunReport::from_json(j).to_json(), j);
}

TEST_F(ObserveTest, RunReportScansEachBlockingOnce) {
  // Every model's selection and the prepared OVERLAP order are ranked
  // from one set of structural scans: 19 BCSR shapes + 7 BCSD sizes.
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(96, 96, 3, 0.4, 0.9, 7));
  ReportOptions opt;
  opt.measure_candidates = false;
  opt.measure.iterations = 1;
  opt.measure.reps = 1;
  opt.measure.warmup = 0;
  opt.threads = 1;
  const RunReport r = build_run_report(a, "unit", synthetic_profile(), opt);
  if (kHooksEnabled) {
    EXPECT_EQ(r.counters.at("select.stats_scans"), 26u);
  } else {
    EXPECT_EQ(r.counters.count("select.stats_scans"), 0u);
  }
}

}  // namespace
