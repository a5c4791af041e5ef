// Threaded-driver schedule tests (docs/tasking.md): the packed task
// cursor, NUMA topology mapping, the TaskPool (dispatch, stealing, the
// busy-pool inline fallback) and ThreadedSpmv's
// bitwise parity with the serial kernels under the stealing schedule and
// adversarial skew.
//
// Every thread here is a std::thread or a pool worker, so the
// ThreadSanitizer job (scripts/run_tsan.sh) checks all of it. One case
// forks: its child starts no thread, which TSan allows.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "src/core/engine.hpp"
#include "src/formats/registry.hpp"
#include "src/kernels/spmv.hpp"
#include "src/parallel/backend.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "src/parallel/task_pool.hpp"
#include "src/parallel/topology.hpp"
#include "src/util/run_control.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv {
namespace {

using bspmv::testing::random_blocky_coo;
using bspmv::testing::random_x;

/// A pool job over a plain function: task t runs fn(t, worker).
class FnJob final : public TaskPool::Job {
 public:
  FnJob(std::vector<std::uint32_t> home,
        std::function<void(std::uint32_t, int)> fn, bool steal = true)
      : home_(std::move(home)), fn_(std::move(fn)), steal_(steal) {}
  std::span<const std::uint32_t> home() const override { return home_; }
  bool steal() const override { return steal_; }
  std::size_t run_task(std::uint32_t task, int worker) override {
    fn_(task, worker);
    return 1;
  }
  void finish(std::span<const TaskPool::WorkerLoad>) override {}

 private:
  std::vector<std::uint32_t> home_;
  std::function<void(std::uint32_t, int)> fn_;
  bool steal_;
};

/// `tasks` tasks split into `workers` contiguous home ranges.
std::vector<std::uint32_t> even_homes(std::uint32_t tasks, int workers) {
  std::vector<std::uint32_t> home(static_cast<std::size_t>(workers) + 1);
  for (int w = 0; w <= workers; ++w)
    home[static_cast<std::size_t>(w)] =
        tasks * static_cast<std::uint32_t>(w) /
        static_cast<std::uint32_t>(workers);
  return home;
}

// ------------------------------------------------------ ExecBackend ----

TEST(Backend, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_backend("bulk"), ExecBackend::kBulk);
  EXPECT_EQ(parse_backend("tasks"), ExecBackend::kTasks);
  EXPECT_STREQ(backend_name(ExecBackend::kBulk), "bulk");
  EXPECT_STREQ(backend_name(ExecBackend::kTasks), "tasks");
  EXPECT_THROW(parse_backend("bogus"), invalid_argument_error);
  EXPECT_THROW(parse_backend(""), invalid_argument_error);
}

// ------------------------------------------------- TaskCursor ----

TEST(WorkQueue, OwnerTakesFrontThiefTakesBack) {
  TaskCursor c;
  c.reset(7, 2, 8);
  std::uint32_t t = 0;
  ASSERT_TRUE(c.take_back(7, t));
  EXPECT_EQ(t, 7u);
  ASSERT_TRUE(c.take_front(7, t));
  EXPECT_EQ(t, 2u);
  ASSERT_TRUE(c.take_front(7, t));
  EXPECT_EQ(t, 3u);
  ASSERT_TRUE(c.take_back(7, t));
  EXPECT_EQ(t, 6u);
  ASSERT_TRUE(c.take_front(7, t));
  EXPECT_EQ(t, 4u);
  ASSERT_TRUE(c.take_back(7, t));
  EXPECT_EQ(t, 5u);
  EXPECT_FALSE(c.take_front(7, t));
  EXPECT_FALSE(c.take_back(7, t));
}

TEST(WorkQueue, StaleGenerationClaimsFail) {
  TaskCursor c;
  c.reset(3, 0, 4);
  std::uint32_t t = 0;
  // A claim tagged with another generation never takes a task, even
  // while the range is full.
  EXPECT_FALSE(c.take_front(2, t));
  EXPECT_FALSE(c.take_back(4, t));
  c.reset(4, 0, 2);
  EXPECT_FALSE(c.take_front(3, t));
  ASSERT_TRUE(c.take_front(4, t));
  EXPECT_EQ(t, 0u);
}

TEST(WorkQueue, StressEveryItemTakenExactlyOnce) {
  // One owner takes from the front while thieves hammer the back, over
  // many short generations; every item of every generation must be
  // taken exactly once across all threads.
  constexpr std::uint32_t kItems = 5;
  constexpr int kGenerations = 4000;
  constexpr int kThieves = 3;
  TaskCursor c;
  std::vector<std::atomic<int>> taken(kItems * kGenerations);
  for (auto& v : taken) v.store(0, std::memory_order_relaxed);
  std::atomic<std::uint32_t> gen{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> thieves;
  for (int k = 0; k < kThieves; ++k)
    thieves.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint32_t g = gen.load(std::memory_order_acquire);
        std::uint32_t t = 0;
        while (c.take_back(g, t))
          taken[(g - 1) * kItems + t].fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::uint32_t g = 1; g <= kGenerations; ++g) {
    c.reset(g, 0, kItems);
    gen.store(g, std::memory_order_release);
    std::uint32_t t = 0;
    while (c.take_front(g, t))
      taken[(g - 1) * kItems + t].fetch_add(1, std::memory_order_relaxed);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  for (std::size_t i = 0; i < taken.size(); ++i)
    ASSERT_EQ(taken[i].load(std::memory_order_relaxed), 1)
        << "item " << i << " taken wrong number of times";
}

// --------------------------------------------------------- Topology ----

TEST(Topology, ParseCpulist) {
  const std::vector<int> expect = {0, 1, 2, 3, 8, 10, 11};
  EXPECT_EQ(parse_cpulist("0-3,8,10-11"), expect);
  EXPECT_TRUE(parse_cpulist("").empty());
  // Malformed chunks are skipped, valid ones kept, duplicates folded.
  const auto partial = parse_cpulist("junk,5,5,2-4");
  const std::vector<int> expect2 = {2, 3, 4, 5};
  EXPECT_EQ(partial, expect2);
}

TEST(Topology, ClusteredShape) {
  const Topology t = Topology::clustered(10, 4);
  ASSERT_EQ(t.nodes.size(), 3u);
  EXPECT_EQ(t.nodes[0].cpus.size(), 4u);
  EXPECT_EQ(t.nodes[1].cpus.size(), 4u);
  EXPECT_EQ(t.nodes[2].cpus.size(), 2u);
  EXPECT_EQ(t.total_cpus, 10);
  EXPECT_FALSE(t.numa_detected);
}

TEST(Topology, NodeOfWorkerIsMonotoneAndInRange) {
  const Topology t = Topology::clustered(16, 4);
  for (int workers : {1, 2, 5, 16, 40}) {
    int prev = 0;
    for (int w = 0; w < workers; ++w) {
      const int n = t.node_of_worker(w, workers);
      ASSERT_GE(n, 0);
      ASSERT_LT(n, static_cast<int>(t.nodes.size()));
      ASSERT_GE(n, prev) << "workers " << workers << " worker " << w;
      prev = n;
    }
  }
}

TEST(Topology, DetectIsNeverEmpty) {
  const Topology t = Topology::detect();
  ASSERT_FALSE(t.nodes.empty());
  for (const auto& n : t.nodes) EXPECT_FALSE(n.cpus.empty());
  EXPECT_GE(t.total_cpus, 1);
}

// --------------------------------------------------------- TaskPool ----

TEST(TaskPool, RunExecutesEveryTaskExactlyOnce) {
  TaskPool pool(4, Topology::clustered(4, 2));
  constexpr std::uint32_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  FnJob job(even_homes(kTasks, 4), [&](std::uint32_t i, int wkr) {
    ASSERT_GE(wkr, 0);
    ASSERT_LT(wkr, 4);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  pool.run(job);
  for (std::size_t i = 0; i < kTasks; ++i)
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "task " << i;
  const TaskPoolStats s = pool.stats();
  EXPECT_EQ(s.submitted, kTasks);
  EXPECT_EQ(s.executed, kTasks);
  EXPECT_LE(s.stolen, s.executed);  // stolen is workload-dependent
}

TEST(TaskPool, EmptyBatchCompletesInline) {
  TaskPool pool(2, Topology::clustered(2, 2));
  FnJob empty(even_homes(0, 2),
              [](std::uint32_t, int) { FAIL() << "no tasks to run"; });
  pool.run(empty);
}

TEST(TaskPool, RethrowsFirstTaskError) {
  TaskPool pool(3, Topology::clustered(3, 2));
  FnJob bad(even_homes(6, 3), [&](std::uint32_t i, int) {
    if (i == 4) throw numerical_error("poisoned task");
  });
  EXPECT_THROW(pool.run(bad), numerical_error);
  // The pool survives an erroring batch and runs the next one.
  std::atomic<int> ok{0};
  FnJob good(even_homes(6, 3), [&](std::uint32_t, int) { ok.fetch_add(1); });
  pool.run(good);
  EXPECT_EQ(ok.load(), 6);
}

TEST(TaskPool, SharedRegistryReturnsOnePoolPerWidth) {
  const auto a = TaskPool::shared(3);
  const auto b = TaskPool::shared(3);
  const auto c = TaskPool::shared(2);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->workers(), 3);
  EXPECT_EQ(c->workers(), 2);
}

TEST(TaskPool, SharedPoolInForkedChildRunsInline) {
  // A forked child inherits the shared registry but not its pools'
  // threads. TaskPool::shared there must hand out a threadless pool, so a
  // non-stealing job, whose home tasks only their own slot may take,
  // still completes on the caller. Without that the child waits forever
  // for dead workers, and its alarm kills it.
  ASSERT_EQ(TaskPool::shared(4)->workers(), 4);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(5);
    const auto pool = TaskPool::shared(4);
    std::atomic<int> ran{0};
    FnJob job(even_homes(8, pool->workers()),
              [&](std::uint32_t, int) { ran.fetch_add(1); },
              /*steal=*/false);
    pool->run(job);
    _exit(ran.load() == 8 && pool->workers() == 1 ? 0 : 2);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status))
      << "child killed by signal " << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(TaskPool, RejectsOutOfRangeHome) {
  TaskPool pool(2, Topology::clustered(2, 2));
  const auto noop = [](std::uint32_t, int) {};
  FnJob too_few({0, 4}, noop);        // one range for two workers
  FnJob decreasing({0, 3, 2}, noop);  // ranges must not go backwards
  FnJob not_at_zero({1, 2, 3}, noop);
  EXPECT_ANY_THROW(pool.run(too_few));
  EXPECT_ANY_THROW(pool.run(decreasing));
  EXPECT_ANY_THROW(pool.run(not_at_zero));
}

// ----------------------------------------- ThreadedSpmv, stealing ----

/// Adversarially skewed matrix: one ultra-heavy dense row, a block of
/// empty rows, and a moderately sparse tail — the static partition can
/// not balance this, so the steal path must.
Coo<double> skewed_coo(index_t rows, index_t cols, std::uint64_t seed) {
  Coo<double> coo(rows, cols);
  Xoshiro256 rng(seed);
  for (index_t j = 0; j < cols; ++j)  // dense row 0
    coo.add(0, j, 0.5 + rng.uniform());
  // rows [1, rows/3): empty. Tail: ~6 nnz/row.
  for (index_t i = rows / 3; i < rows; ++i)
    for (int k = 0; k < 6; ++k)
      coo.add(i, static_cast<index_t>(rng.below(static_cast<std::uint64_t>(
                     cols))),
              0.1 + rng.uniform());
  return coo;
}

/// One representative candidate per parallel format kind (block shape /
/// diagonal length chosen to exercise padding).
Candidate parity_candidate(FormatKind kind) {
  switch (kind) {
    case FormatKind::kBcsr:
    case FormatKind::kBcsrDec:
      return Candidate{kind, BlockShape{3, 2}, 0, Impl::kScalar};
    case FormatKind::kBcsd:
    case FormatKind::kBcsdDec:
      return Candidate{kind, BlockShape{1, 1}, 4, Impl::kScalar};
    default:
      return Candidate{kind, BlockShape{1, 1}, 0, Impl::kScalar};
  }
}

class TaskGraphParity : public ::testing::TestWithParam<int> {};

// Every parallel format in the registry, scalar + simd, bitwise against
// the serial kernels on a skewed matrix, under the stealing schedule.
// ThreadedParity in test_parallel.cpp covers the same grid through the
// default constructor.
TEST_P(TaskGraphParity, RegistryFormatsMatchSerialBitwise) {
  const int threads = GetParam();
  const Coo<double> coo = skewed_coo(120, 96, 11);
  const Csr<double> a = Csr<double>::from_coo(coo);
  const auto x = random_x<double>(96, 5);
  const std::size_t n = 120;

  int parallel_formats = 0;
  for_each_format<double>([&](auto tag) {
    using F = typename decltype(tag)::type;
    using Ops = FormatOps<F>;
    if constexpr (Ops::kParallel) {
      ++parallel_formats;
      const Candidate c = parity_candidate(Ops::kKind);
      const F m = Ops::convert(a, c);
      const ThreadedSpmv<F> driver(m, threads, ExecBackend::kTasks);
      for (Impl impl : {Impl::kScalar, Impl::kSimd}) {
        aligned_vector<double> ys(n, 0.0), yp(n, -1.0);
        spmv(m, x.data(), ys.data(), impl);
        driver.run(x.data(), yp.data(), impl);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(yp[i], ys[i])
              << c.id() << " impl=" << impl_name(impl)
              << " threads=" << threads << " row " << i;
      }
    }
  });
  EXPECT_EQ(parallel_formats, 5);
}

INSTANTIATE_TEST_SUITE_P(Threads, TaskGraphParity,
                         ::testing::Values(1, 2, 4, 7));

TEST(TaskStress, SkewedSevenThreadRepeatedRuns) {
  // 7 workers × 30 back-to-back runs over a skewed matrix keeps the
  // cursors contended; output must stay bitwise stable across runs
  // regardless of who stole what.
  const Csr<double> a = Csr<double>::from_coo(skewed_coo(400, 300, 17));
  const auto x = random_x<double>(300, 23);
  aligned_vector<double> ys(400, 0.0);
  spmv(a, x.data(), ys.data());

  const ThreadedSpmv<Csr<double>> driver(a, 7, ExecBackend::kTasks);
  aligned_vector<double> y(400);
  for (int rep = 0; rep < 30; ++rep) {
    std::fill(y.begin(), y.end(), -1.0);
    driver.run(x.data(), y.data());
    for (std::size_t i = 0; i < 400; ++i)
      ASSERT_EQ(y[i], ys[i]) << "rep " << rep << " row " << i;
  }
  ASSERT_NE(driver.pool(), nullptr);
  const TaskPoolStats s = driver.pool()->stats();
  EXPECT_GE(s.executed + s.inline_runs, 30u);  // shared pool: ours ran
}

TEST(TaskStress, ExactlyOnceAcrossWidthsAndShortRanges) {
  // Owner and thieves racing on short home ranges (0-3 tasks per
  // worker, some empty), thousands of runs per width: every task of
  // every run executes exactly once.
  Xoshiro256 rng(91);
  for (int workers = 1; workers <= 8; ++workers) {
    TaskPool pool(workers, Topology::clustered(workers, 2));
    for (int run = 0; run < 1500; ++run) {
      std::vector<std::uint32_t> home(static_cast<std::size_t>(workers) + 1,
                                      0);
      for (std::size_t w = 1; w < home.size(); ++w)
        home[w] = home[w - 1] + static_cast<std::uint32_t>(rng.below(4));
      std::vector<std::atomic<int>> hits(home.back());
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      FnJob job(home, [&](std::uint32_t t, int) {
        hits[t].fetch_add(1, std::memory_order_relaxed);
      });
      pool.run(job);
      for (std::size_t t = 0; t < hits.size(); ++t)
        ASSERT_EQ(hits[t].load(std::memory_order_relaxed), 1)
            << "workers " << workers << " run " << run << " task " << t;
    }
  }
}

TEST(TaskStress, ConcurrentDriversShareOnePool) {
  // Two driver objects over different matrices run on the same shared
  // pool from two caller threads at once — the serving daemon's steady
  // state. Whichever caller finds the pool busy runs inline; both must
  // stay bitwise correct.
  const Csr<double> a1 = Csr<double>::from_coo(skewed_coo(200, 150, 31));
  const Csr<double> a2 = Csr<double>::from_coo(
      random_blocky_coo<double>(180, 150, 3, 0.4, 0.8, 33));
  const auto x = random_x<double>(150, 3);
  aligned_vector<double> r1(200, 0.0), r2(180, 0.0);
  spmv(a1, x.data(), r1.data());
  spmv(a2, x.data(), r2.data());

  const ThreadedSpmv<Csr<double>> d1(a1, 4), d2(a2, 4);
  EXPECT_EQ(d1.pool(), d2.pool());
  std::atomic<int> failures{0};
  auto hammer = [&](const ThreadedSpmv<Csr<double>>& d,
                    const aligned_vector<double>& ref, std::size_t rows) {
    aligned_vector<double> y(rows);
    for (int rep = 0; rep < 20; ++rep) {
      std::fill(y.begin(), y.end(), -1.0);
      d.run(x.data(), y.data());
      for (std::size_t i = 0; i < rows; ++i)
        if (y[i] != ref[i]) failures.fetch_add(1);
    }
  };
  std::thread t1([&] { hammer(d1, r1, 200); });
  std::thread t2([&] { hammer(d2, r2, 180); });
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TaskStress, BusyPoolRunsSecondEngineInline) {
  // Thread A holds the shared 3-wide pool with a job whose first task
  // waits; thread B's engine on the same pool must not wait for it: its
  // whole run goes inline on B, bitwise equal to serial.
  const Csr<double> a = Csr<double>::from_coo(skewed_coo(150, 120, 97));
  const auto x = random_x<double>(120, 98);
  aligned_vector<double> ref(150, 0.0), y(150, -1.0);
  spmv(a, x.data(), ref.data());
  const auto engine = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar}, 3);
  const auto pool = TaskPool::shared(3);
  const std::uint64_t inline_before = pool->stats().inline_runs;

  std::atomic<bool> holding{false}, release{false};
  FnJob hold(even_homes(3, 3), [&](std::uint32_t t, int) {
    if (t != 0) return;
    holding.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  std::thread holder([&] { pool->run(hold); });
  while (!holding.load(std::memory_order_acquire)) std::this_thread::yield();
  engine.run(x.data(), y.data());  // pool busy: inline on this thread
  release.store(true, std::memory_order_release);
  holder.join();

  EXPECT_GT(pool->stats().inline_runs, inline_before);
  for (std::size_t i = 0; i < 150; ++i) ASSERT_EQ(y[i], ref[i]) << i;
}

/// CSR wrapper whose pass_run is slow on granules below `slow_rows`, so
/// the worker homed there falls behind and the others must steal — an
/// out-of-tree format registered through FormatOps alone.
template <class V>
struct SlowHeadCsr {
  Csr<V> a;
  index_t slow_rows;
  index_t rows() const { return a.rows(); }
  index_t cols() const { return a.cols(); }
};

}  // namespace

template <class V>
struct FormatOps<SlowHeadCsr<V>> {
  using value_type = V;
  static constexpr FormatKind kKind = FormatKind::kCsr;  // never registered
  static constexpr const char* kName = "slow_head_csr";
  static constexpr bool kParallel = true;
  static std::vector<std::size_t> pass_weights(const SlowHeadCsr<V>& m) {
    return FormatOps<Csr<V>>::pass_weights(m.a);
  }
  static index_t pass_first_row(const SlowHeadCsr<V>&, index_t g) {
    return g;
  }
  static void pass_run(const SlowHeadCsr<V>& m, index_t g0, index_t g1,
                       const V* x, V* y, Impl impl) {
    if (g0 < m.slow_rows)
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    FormatOps<Csr<V>>::pass_run(m.a, g0, g1, x, y, impl);
  }
};

namespace {

TEST(TaskSchedule, StealingHappensOnASlowHomeRange) {
  // Uniform rows, 4 workers: worker 0's home range is the slow head.
  const Csr<double> a = Csr<double>::from_coo(
      random_blocky_coo<double>(256, 256, 1, 0.05, 1.0, 101));
  const SlowHeadCsr<double> m{a, 64};
  const auto x = random_x<double>(256, 102);
  aligned_vector<double> ref(256, 0.0);
  spmv(a, x.data(), ref.data());

  for (ExecBackend schedule : {ExecBackend::kTasks, ExecBackend::kBulk}) {
    const auto pool = std::make_shared<TaskPool>(4);
    const ThreadedSpmv<SlowHeadCsr<double>> d(m, 4, schedule, pool);
    aligned_vector<double> y(256);
    for (int rep = 0; rep < 3; ++rep) {
      std::fill(y.begin(), y.end(), -1.0);
      d.run(x.data(), y.data());
      for (std::size_t i = 0; i < 256; ++i)
        ASSERT_EQ(y[i], ref[i]) << backend_name(schedule) << " row " << i;
    }
    const TaskPoolStats s = pool->stats();
    if (schedule == ExecBackend::kTasks)
      EXPECT_GT(s.stolen, 0u);
    else
      EXPECT_EQ(s.stolen, 0u);
    EXPECT_EQ(s.executed, s.submitted);
  }
}

std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
    n += e.is_directory() ? 1 : 0;
  return n;
}

TEST(TaskSchedule, OneThreadPlanSpawnsNoPoolThread) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task to count threads";
  const Csr<double> a = Csr<double>::from_coo(skewed_coo(90, 70, 103));
  const auto x = random_x<double>(70, 104);
  aligned_vector<double> ref(90, 0.0), y(90, -1.0), ye(90, -1.0);
  spmv(a, x.data(), ref.data());

  const std::size_t before = process_threads();
  for (ExecBackend schedule : {ExecBackend::kTasks, ExecBackend::kBulk}) {
    const ThreadedSpmv<Csr<double>> d(a, 1, schedule);
    EXPECT_EQ(d.pool(), nullptr);
    d.run(x.data(), y.data());
    for (std::size_t i = 0; i < 90; ++i) ASSERT_EQ(y[i], ref[i]) << i;
  }
  const auto engine = SpmvEngine<double>::prepare(
      a, Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar}, 1);
  engine.run(x.data(), ye.data());
  for (std::size_t i = 0; i < 90; ++i) ASSERT_EQ(ye[i], ref[i]) << i;
  EXPECT_EQ(process_threads(), before);
}

TEST(TaskGraph, OverDecomposesAndSkipsEmptySlices) {
  const Csr<double> a = Csr<double>::from_coo(skewed_coo(400, 100, 41));
  const ThreadedSpmv<Csr<double>> d(a, 4, ExecBackend::kTasks);
  // Up to kTasksPerThread tasks per home range, never more than one per
  // granule; the static schedule keeps one task per home range.
  EXPECT_GT(d.task_count(), 4u);
  EXPECT_LE(d.task_count(), 4u * kTasksPerThread);
  const ThreadedSpmv<Csr<double>> b(a, 4, ExecBackend::kBulk);
  EXPECT_LE(b.task_count(), 4u);
}

TEST(TaskGraph, RunMultiMatchesBulkBackendBitwise) {
  const Csr<double> a = Csr<double>::from_coo(skewed_coo(130, 110, 57));
  const auto X = random_x<double>(110 * 3, 29);
  const ThreadedSpmv<Csr<double>> d(a, 4, ExecBackend::kTasks);
  // Reference: serial run per extracted vector (identical per-row
  // accumulation order).
  aligned_vector<double> yref(130 * 3, 0.0), y(130 * 3, -1.0);
  for (int j = 0; j < 3; ++j) {
    aligned_vector<double> xj(110), yj(130, 0.0);
    for (index_t i = 0; i < 110; ++i)
      xj[static_cast<std::size_t>(i)] =
          X[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(j)];
    spmv(a, xj.data(), yj.data());
    for (index_t i = 0; i < 130; ++i)
      yref[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(j)] =
          yj[static_cast<std::size_t>(i)];
  }
  d.run_multi(X.data(), y.data(), 3);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_EQ(y[i], yref[i]) << "elem " << i;
}

TEST(TaskGraph, WarmUpZeroFillsYAndPreservesX) {
  const Csr<double> a = Csr<double>::from_coo(skewed_coo(90, 80, 61));
  const ThreadedSpmv<Csr<double>> d(a, 3, ExecBackend::kTasks);
  auto x = random_x<double>(80, 37);
  const aligned_vector<double> x_before = x;
  aligned_vector<double> y(90, -1.0);
  d.warm_up(x.data(), y.data());
  for (std::size_t j = 0; j < 80; ++j)
    ASSERT_EQ(x[j], x_before[j]) << "x changed at " << j;
  for (std::size_t i = 0; i < 90; ++i) ASSERT_EQ(y[i], 0.0) << "row " << i;
  // Null pointers skip the respective vector.
  d.warm_up(nullptr, nullptr);
}

TEST(TaskGraph, PreStoppedControlLeavesOutputUntouched) {
  const Csr<double> a = Csr<double>::from_coo(skewed_coo(60, 50, 67));
  const auto x = random_x<double>(50, 41);
  const ThreadedSpmv<Csr<double>> d(a, 2, ExecBackend::kTasks);
  RunControl control;
  control.request_cancel("test: cancelled before submit");
  aligned_vector<double> y(60, -7.0);
  d.run(x.data(), y.data(), Impl::kScalar, &control);
  for (std::size_t i = 0; i < 60; ++i)
    ASSERT_EQ(y[i], -7.0) << "cancelled run wrote row " << i;
  EXPECT_THROW(control.throw_if_aborted(), cancelled_error);
}

TEST(TaskGraph, RejectsMismatchedPoolWidth) {
  const Csr<double> a = Csr<double>::from_coo(skewed_coo(20, 20, 71));
  auto pool = TaskPool::shared(2);
  EXPECT_ANY_THROW(
      (ThreadedSpmv<Csr<double>>(a, 3, ExecBackend::kTasks, pool)));
}

}  // namespace
}  // namespace bspmv
