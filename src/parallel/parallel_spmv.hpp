// The one multithreaded SpMV driver, generic over every format whose
// FormatOps specialisation opts in with kParallel — for the library that
// is CSR, BCSR, BCSD and the two decomposed variants, matching §V-A
// (1D-VBL is deliberately excluded). docs/tasking.md has the full story.
//
// ThreadedSpmv<Format> plans once: the format's granules are split into
// one nnz-balanced (padding-aware) home range per worker — the paper's
// §V-A partition — and each home range into tasks. The schedule policy
// (src/parallel/backend.hpp) decides the split and who runs the tasks:
//
//   kBulk   one task per home range, no stealing: the paper's static
//           driver, exactly;
//   kTasks  up to kTasksPerThread nnz-balanced tasks per home range; a
//           worker that drains its own range steals from the back of
//           the others' (TaskPool, src/parallel/task_pool.hpp).
//
// A task covers a contiguous granule range and hence a contiguous row
// range; a task zero-fills its rows before accumulating. Every task
// runs exactly once and a row is written by exactly one task in the
// serial per-row order, so the output is bitwise identical to the
// serial kernels under either schedule, any thread count and any
// run_multi k.
//
// Execution: threads == 1 plans run inline on the caller and never touch
// a pool. Wider plans run on a persistent TaskPool of that width (the
// process-wide shared one unless a pool is injected) with the caller as
// worker 0; a caller that finds the pool busy runs its plan inline.
//
// Observability: when built with BSPMV_OBSERVE (src/observe/observe.hpp)
// and observation is on, every run records each worker's busy time and
// executed stored values (padding included) under "parallel/<format>"
// ("spmm/<format>" for run_multi, values × k) — the per-thread
// load-imbalance telemetry a RunReport exposes — and flushes the pool's
// task.* counters.
//
// The template is defined here (not in the .cpp) so formats registered
// outside the library instantiate it too; the five built-in parallel
// formats have extern template declarations below and are compiled once
// in parallel_spmv.cpp.
#pragma once

#include <algorithm>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/formats/format_ops.hpp"
#include "src/observe/observe.hpp"
#include "src/parallel/backend.hpp"
#include "src/parallel/partition.hpp"
#include "src/parallel/task_pool.hpp"
#include "src/util/aligned.hpp"
#include "src/util/macros.hpp"
#include "src/util/run_control.hpp"

namespace bspmv {

template <class Format>
class ThreadedSpmv {
  using Ops = FormatOps<Format>;
  using V = typename Ops::value_type;
  static_assert(Ops::kParallel,
                "ThreadedSpmv requires FormatOps<Format>::kParallel — the "
                "paper parallelises only CSR/BCSR/BCSD and the decomposed "
                "variants (§V-A)");

 public:
  /// Granules per cancellation-poll / heartbeat when a RunControl is
  /// attached: large enough that the relaxed-atomic poll is invisible
  /// next to the kernel work, small enough (sub-millisecond of rows)
  /// that deadlines and stalls are observed promptly.
  static constexpr index_t kControlChunk = 256;

  /// Plan `a` for `threads` workers under `schedule`. With no pool given
  /// a multi-thread plan joins the process-wide shared pool of that
  /// width; an injected pool must have exactly `threads` workers.
  ThreadedSpmv(const Format& a, int threads,
               ExecBackend schedule = ExecBackend::kTasks,
               std::shared_ptr<TaskPool> pool = nullptr);

  /// y = A·x. With a control, each task runs in kControlChunk slices,
  /// polling the control's stop flag (one relaxed load) and heartbeating
  /// its worker's slot between slices; on a cancellation/deadline/stall
  /// the remaining slices are skipped — every task still completes,
  /// then the caller's control->check() surfaces the typed error. y is
  /// indeterminate after an aborted run.
  void run(const V* x, V* y, Impl impl = Impl::kScalar,
           RunControl* control = nullptr) const;

  /// Y = A·X for k row-major right-hand sides (X cols×k, Y rows×k,
  /// element (i, j) at [i·k + j]). Reuses the single-vector tasks: a
  /// granule's multi-vector work scales uniformly by k, so the
  /// nnz-balanced split stays balanced. k == 1 is the single-vector path
  /// (bitwise identical to run()); formats without the pass_run_multi
  /// protocol fall back to one threaded run() per vector. Cancellation
  /// behaves as in run(); Y is indeterminate after an aborted run.
  void run_multi(const V* X, V* Y, int k, Impl impl = Impl::kScalar,
                 RunControl* control = nullptr) const;

  /// First-touch placement pass: each task's home worker writes
  /// the y rows that task will produce (zero-fill) and rewrites a
  /// proportional slice of x in place, so the OS backs those pages on
  /// the worker's node before the timed runs. Either pointer may be
  /// null to skip that vector.
  void warm_up(V* x, V* y) const;

  int threads() const { return threads_; }
  /// The pool this plan runs on; nullptr for a one-thread plan.
  TaskPool* pool() const { return pool_.get(); }
  /// Decomposition introspection for tests.
  std::size_t task_count() const { return tasks_.size(); }

 private:
  struct Task {
    index_t g0, g1;      ///< granule range
    index_t row0, row1;  ///< row range, also the zero-fill range
    std::size_t weight;  ///< stored values incl. padding (§V-A weights)
  };
  template <class Body>
  class Job;

  /// Run `body(task, worker)` over every task.
  template <class Body>
  void execute(const Body& body, bool steal, const std::string* metric,
               std::size_t scale) const;
  /// Zero-fill and accumulate one task, honouring `control`.
  template <class PassFn>
  static void run_sliced(const Task& tk, int worker, RunControl* control,
                         PassFn&& pass_run);
  void run_one(const Task& tk, int worker, const V* x, V* y, Impl impl,
               RunControl* control) const;
  void record(const std::string* metric,
              std::span<const TaskPool::WorkerLoad> load,
              std::size_t scale) const;

  static const std::string& run_metric() {
    static const std::string m = std::string("parallel/") + Ops::kName;
    return m;
  }
  static const std::string& multi_metric() {
    static const std::string m = std::string("spmm/") + Ops::kName;
    return m;
  }

  const Format* a_;
  int threads_;
  ExecBackend schedule_;
  std::shared_ptr<TaskPool> pool_;
  std::vector<Task> tasks_;
  std::vector<std::uint32_t> home_;  ///< threads+1 task bounds
};

/// The pool job of one run, on the caller's stack: tasks and homes from
/// the plan, the work from `Body`.
template <class Format>
template <class Body>
class ThreadedSpmv<Format>::Job final : public TaskPool::Job {
 public:
  Job(const ThreadedSpmv& d, Body body, bool steal, const std::string* metric,
      std::size_t scale)
      : d_(d), body_(std::move(body)), steal_(steal), metric_(metric),
        scale_(scale) {}

  std::span<const std::uint32_t> home() const override { return d_.home_; }
  bool steal() const override { return steal_; }
  std::size_t run_task(std::uint32_t task, int worker) override {
    const Task& tk = d_.tasks_[task];
    body_(tk, worker);
    return tk.weight;
  }
  void finish(std::span<const TaskPool::WorkerLoad> load) override {
    d_.record(metric_, load, scale_);
  }

 private:
  const ThreadedSpmv& d_;
  Body body_;
  bool steal_;
  const std::string* metric_;  ///< null: record nothing
  std::size_t scale_;
};

template <class Format>
ThreadedSpmv<Format>::ThreadedSpmv(const Format& a, int threads,
                                   ExecBackend schedule,
                                   std::shared_ptr<TaskPool> pool)
    : a_(&a), threads_(threads), schedule_(schedule) {
  BSPMV_CHECK_MSG(threads >= 1, "thread count must be >= 1");
  BSPMV_CHECK_MSG(pool == nullptr || pool->workers() == threads,
                  "task pool width must equal the plan's thread count");
  if (threads > 1) pool_ = pool ? std::move(pool) : TaskPool::shared(threads);
  // One task per home range unless there is someone to steal it.
  const std::size_t per_home =
      schedule == ExecBackend::kTasks && threads > 1
          ? static_cast<std::size_t>(kTasksPerThread)
          : 1;
  BSPMV_CHECK_MSG(static_cast<std::size_t>(threads) * per_home <=
                      TaskCursor::kMaxTasks,
                  "thread count too large for the task cursor");
  const auto w = Ops::pass_weights(a);
  const auto homes = balanced_partition(w, threads);
  home_.assign(static_cast<std::size_t>(threads) + 1, 0);
  for (std::size_t t = 0; t < static_cast<std::size_t>(threads); ++t) {
    const auto b0 = static_cast<std::size_t>(homes[t]);
    const auto b1 = static_cast<std::size_t>(homes[t + 1]);
    const std::size_t n = std::min(per_home, b1 - b0);
    if (n > 0) {
      const std::span<const std::size_t> range(w.data() + b0, b1 - b0);
      const auto cuts = balanced_partition(range, static_cast<int>(n));
      for (std::size_t s = 0; s < n; ++s) {
        const index_t g0 = static_cast<index_t>(b0) + cuts[s];
        const index_t g1 = static_cast<index_t>(b0) + cuts[s + 1];
        if (g0 == g1) continue;  // empty slice: no rows, nothing to do
        Task tk{g0, g1, Ops::pass_first_row(a, g0),
                Ops::pass_first_row(a, g1), 0};
        for (index_t g = g0; g < g1; ++g)
          tk.weight += w[static_cast<std::size_t>(g)];
        tasks_.push_back(tk);
      }
    }
    home_[t + 1] = static_cast<std::uint32_t>(tasks_.size());
  }
}

template <class Format>
template <class Body>
void ThreadedSpmv<Format>::execute(const Body& body, bool steal,
                                   const std::string* metric,
                                   std::size_t scale) const {
  Job<const Body&> job(*this, body, steal, metric, scale);
  if (pool_ != nullptr) {
    pool_->run(job);
  } else if (auto err = TaskPool::run_inline(job)) {
    std::rethrow_exception(err);
  }
}

template <class Format>
template <class PassFn>
void ThreadedSpmv<Format>::run_sliced(const Task& tk, int worker,
                                      RunControl* control,
                                      PassFn&& pass_run) {
  // Publish the control to this thread so deep code (kernels, injected
  // test formats) can poll cancellation without a plumbed parameter.
  RunControl::ScopedCurrent ambient(control);
  if (control == nullptr) {
    pass_run(tk.g0, tk.g1, true);
  } else if (!control->stop_requested()) {
    for (index_t g = tk.g0; g < tk.g1; g += kControlChunk) {
      if (control->stop_requested()) break;  // one relaxed load
      pass_run(g, std::min<index_t>(tk.g1, g + kControlChunk), g == tk.g0);
      control->heartbeat(worker);
    }
  }
}

template <class Format>
void ThreadedSpmv<Format>::run_one(const Task& tk, int worker, const V* x,
                                   V* y, Impl impl,
                                   RunControl* control) const {
  run_sliced(tk, worker, control,
             [&](index_t g0, index_t g1, bool zero) {
    if (zero) std::fill(y + tk.row0, y + tk.row1, V{0});
    Ops::pass_run(*a_, g0, g1, x, y, impl);
  });
}

template <class Format>
void ThreadedSpmv<Format>::record(const std::string* metric,
                                  std::span<const TaskPool::WorkerLoad> load,
                                  std::size_t scale) const {
#if defined(BSPMV_OBSERVE_HOOKS) && BSPMV_OBSERVE_HOOKS
  if (metric == nullptr || !observe::enabled()) return;
  auto& reg = observe::CounterRegistry::instance();
  for (std::size_t w = 0; w < load.size(); ++w)
    if (load[w].items != 0 || load[w].seconds != 0.0)
      reg.add_thread_time(*metric, static_cast<int>(w), load[w].seconds,
                          load[w].items * scale);
  if (pool_ != nullptr) pool_->flush_observe();
#else
  (void)metric;
  (void)load;
  (void)scale;
#endif
}

template <class Format>
void ThreadedSpmv<Format>::run(const V* x, V* y, Impl impl,
                               RunControl* control) const {
  execute(
      [&](const Task& tk, int worker) {
        run_one(tk, worker, x, y, impl, control);
      },
      schedule_ == ExecBackend::kTasks, &run_metric(), 1);
}

template <class Format>
void ThreadedSpmv<Format>::run_multi(const V* X, V* Y, int k, Impl impl,
                                     RunControl* control) const {
  BSPMV_CHECK_MSG(k >= 1, "rhs count must be >= 1");
  if (k == 1) {
    run(X, Y, impl, control);
    return;
  }
  const std::size_t kk = static_cast<std::size_t>(k);
  if constexpr (!requires(const Format& f, const V* x, V* y) {
                  Ops::pass_run_multi(f, index_t{0}, index_t{0}, x, y, 1,
                                      Impl::kScalar);
                }) {
    // Out-of-tree format without the multi-vector protocol: one threaded
    // single-vector run() per right-hand side, through a
    // deinterleave/reinterleave copy.
    const std::size_t rows = static_cast<std::size_t>(a_->rows());
    const std::size_t cols = static_cast<std::size_t>(a_->cols());
    aligned_vector<V> x(cols), y(rows);
    for (int j = 0; j < k; ++j) {
      if (control != nullptr && control->stop_requested()) return;
      for (std::size_t i = 0; i < cols; ++i)
        x[i] = X[i * kk + static_cast<std::size_t>(j)];
      run(x.data(), y.data(), impl, control);
      for (std::size_t i = 0; i < rows; ++i)
        Y[i * kk + static_cast<std::size_t>(j)] = y[i];
    }
  } else {
    execute(
        [&](const Task& tk, int worker) {
          run_sliced(tk, worker, control,
                     [&](index_t g0, index_t g1, bool zero) {
                       if (zero)
                         std::fill(Y + static_cast<std::size_t>(tk.row0) * kk,
                                   Y + static_cast<std::size_t>(tk.row1) * kk,
                                   V{0});
                       Ops::pass_run_multi(*a_, g0, g1, X, Y, k, impl);
                     });
        },
        schedule_ == ExecBackend::kTasks, &multi_metric(), kk);
  }
}

template <class Format>
void ThreadedSpmv<Format>::warm_up(V* x, V* y) const {
  const std::size_t n = tasks_.size();
  const std::size_t cols = static_cast<std::size_t>(a_->cols());
  // No stealing: each task runs on its home worker.
  execute(
      [&](const Task& tk, int) {
        if (y != nullptr) std::fill(y + tk.row0, y + tk.row1, V{0});
        if (x != nullptr) {
          // Volatile self-store: dirties each page (first touch allocates
          // it on this worker's node) without changing any value.
          const auto ti = static_cast<std::size_t>(&tk - tasks_.data());
          volatile V* vx = x;
          for (std::size_t j = cols * ti / n; j < cols * (ti + 1) / n; ++j)
            vx[j] = vx[j];
        }
      },
      false, nullptr, 0);
}

#define BSPMV_DECL(V)            \
  extern template class          \
      ThreadedSpmv<Csr<V>>;      \
  extern template class          \
      ThreadedSpmv<Bcsr<V>>;     \
  extern template class          \
      ThreadedSpmv<Bcsd<V>>;     \
  extern template class          \
      ThreadedSpmv<BcsrDec<V>>;  \
  extern template class          \
      ThreadedSpmv<BcsdDec<V>>;
BSPMV_DECL(float)
BSPMV_DECL(double)
#undef BSPMV_DECL

}  // namespace bspmv
