// SpmvEngine: the prepare-once / run-many facade over candidate
// materialisation and execution.
//
// Conversion (and, for threaded execution, partition planning) happens
// once at construction; run() and measure() then execute y = A·x as many
// times as needed with zero per-call setup. The thread count selects the
// execution plan:
//
//   threads == 0   single-threaded AnyFormat kernel (any format)
//   threads >= 1   ThreadedSpmv plan for that many workers under the
//                  engine's schedule policy (src/parallel/backend.hpp:
//                  kTasks, home ranges plus stealing, by default; kBulk,
//                  the paper's static §V-A schedule) — only for the
//                  formats the paper parallelises (§V-A: CSR/BCSR/BCSD
//                  and the decomposed variants); other formats throw
//                  invalid_argument_error.
//
// Note `threads == 1` still runs the threaded driver (one-thread plan,
// inline on the caller, no pool), so single-thread baselines exercise
// the same code path and per-thread telemetry as the scaling points,
// exactly like the paper's Fig. 2.
//
// The measurement loops are instrumented: spans "measure/spmv" (plain
// plan) and "measure/threaded" (threaded plan), plus the per-thread
// "parallel/<fmt>" metrics recorded by ThreadedSpmv itself.
//
// Robustness rails (all opt-in, zero cost when unused): measure() honours
// MeasureOptions::control — a RunControl carrying a deadline and/or
// cooperative cancellation, enforced by a Watchdog plus iteration-edge
// and granule-boundary polls — and MeasureOptions::check_numerics, the
// NaN/Inf + output-fingerprint health guard. The guarded run() overload
// applies the same guards to a single y = A·x for service loops.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/core/executor.hpp"
#include "src/observe/observe.hpp"
#include "src/parallel/backend.hpp"
#include "src/util/numerics.hpp"
#include "src/util/prng.hpp"
#include "src/util/run_control.hpp"

namespace bspmv {

namespace detail {

template <class V>
aligned_vector<V> random_measure_vector(std::size_t n, std::uint64_t seed) {
  aligned_vector<V> v(n);
  Xoshiro256 rng(seed);
  for (auto& e : v) e = static_cast<V>(rng.uniform() - 0.5);
  return v;
}

/// The guarded measurement behind SpmvEngine::measure, shared (as a
/// template) with the fault-injection tests so injected stalls and
/// cancellations exercise the exact production path. `run_once(x, y)`
/// must compute y = A·x; the paper's methodology (warm-up, then `reps`
/// batches of `iterations` consecutive SpMVs) runs through one
/// Measurement, with the RunControl/Watchdog and numeric-guard rails of
/// MeasureOptions around it.
template <class V, class RunFn, class WarmFn>
Samples measure_guarded(index_t rows, index_t cols, const MeasureOptions& opt,
                        RunFn&& run_once, WarmFn&& warm_touch) {
  BSPMV_CHECK(opt.iterations > 0 && opt.reps > 0 && opt.warmup >= 0);
  auto x =
      random_measure_vector<V>(static_cast<std::size_t>(cols), opt.seed);
  aligned_vector<V> y(static_cast<std::size_t>(rows), V{0});
  // Placement hook: a threaded plan rewrites x and zero-fills y from
  // each task's home worker here, so first touch lands the measurement
  // buffers on the NUMA nodes that will stream them (no-op otherwise).
  warm_touch(x.data(), y.data());

  RunControl* rc = opt.control;
  // The watchdog enforces the deadline/stall budget even while workers
  // are inside a kernel; it spawns no thread when neither is configured.
  std::optional<Watchdog> watchdog;
  if (rc) watchdog.emplace(*rc);

  if (opt.check_numerics)
    check_finite("measure: input vector x", x.data(), x.size());

  auto once = [&] {
    if (rc) rc->check();  // iteration edge: deadline + typed throw
    run_once(x.data(), y.data());
    if (rc) {
      rc->heartbeat(0);
      rc->throw_if_aborted();  // an abort mid-run leaves y indeterminate
    }
  };

  // The fingerprint needs a completed reference output; guarantee one
  // warmup run when the guard is on.
  const int warmup =
      opt.check_numerics && opt.warmup == 0 ? 1 : opt.warmup;
  for (int i = 0; i < warmup; ++i) once();

  std::uint64_t ref_fp = 0;
  if (opt.check_numerics) {
    check_finite("measure: output vector y", y.data(), y.size());
    ref_fp = bits_fingerprint(y.data(), y.size());
    BSPMV_OBS_COUNT("guard.numeric_scans", 1);
  }

  Measurement m{.batches = opt.reps,
                .warmup = 0,
                .iterations = static_cast<std::uint64_t>(opt.iterations),
                .control = rc};
  if (opt.check_numerics)
    m.after_batch = [&](std::size_t) {
      if (bits_fingerprint(y.data(), y.size()) != ref_fp) {
        BSPMV_OBS_COUNT("guard.fingerprint_failures", 1);
        throw numerical_error(
            "measure: output fingerprint changed between batches — "
            "nondeterministic kernel or memory corruption");
      }
    };
  Samples s = m.run(once);
  do_not_optimize(y.data());
  return s;
}

/// measure_guarded without a placement hook — the signature the
/// fault-injection tests share with production.
template <class V, class RunFn>
Samples measure_guarded(index_t rows, index_t cols, const MeasureOptions& opt,
                        RunFn&& run_once) {
  return measure_guarded<V>(rows, cols, opt, std::forward<RunFn>(run_once),
                            [](V*, V*) {});
}

}  // namespace detail

template <class V>
class SpmvEngine {
 public:
  /// Fault-tolerant prepare: walk `ranked` through try_prepare (falling
  /// back to scalar CSR if every candidate fails), then build the plan.
  static SpmvEngine prepare(const Csr<V>& a,
                            const std::vector<Candidate>& ranked,
                            int threads = 0,
                            ExecBackend backend = ExecBackend::kTasks);

  /// Single-candidate prepare; conversion failures throw.
  static SpmvEngine prepare(const Csr<V>& a, const Candidate& c,
                            int threads = 0,
                            ExecBackend backend = ExecBackend::kTasks);

  /// Non-owning engine over an already-materialised format; `f` must
  /// outlive the engine.
  static SpmvEngine borrow(const AnyFormat<V>& f, int threads = 0,
                           ExecBackend backend = ExecBackend::kTasks);

  const AnyFormat<V>& format() const { return *fmt_; }
  /// The prepare audit trail (fallback flag + skipped candidates), or
  /// nullptr for borrow() / single-candidate engines.
  const PreparedExecutor<V>* prepared() const { return owned_.get(); }
  int threads() const { return threads_; }
  ExecBackend backend() const { return backend_; }

  /// Swap to a new thread count, reusing the already-converted format
  /// (conversion dominates a thread-scaling sweep; Fig. 2). Replans the
  /// current schedule for the new worker count.
  void set_threads(int threads);

  /// Swap schedule policy (static bulk vs home ranges plus stealing) on
  /// the already-converted format. Same strong guarantee as
  /// set_threads: on failure the engine keeps its previous plan.
  void set_backend(ExecBackend backend);

  /// y = A·x through the current plan.
  void run(const V* x, V* y) const;

  /// Guarded y = A·x for service loops: optionally scans x before and y
  /// after for NaN/Inf (numerical_error), and honours a RunControl —
  /// threaded plans poll its stop flag at granule boundaries, and the
  /// control's typed error is thrown after the run if it aborted. Either
  /// rail may be off (control == nullptr / check_numerics == false).
  void run(const V* x, V* y, RunControl* control,
           bool check_numerics = false) const;

  /// Y = A·X for k right-hand sides through the current plan (X cols×k,
  /// Y rows×k, row-major: element (i, j) at [i·k + j]). The matrix is
  /// streamed once across all k vectors; k == 1 is exactly run(). See
  /// docs/spmm.md.
  void run_multi(const V* X, V* Y, int k) const;

  /// Guarded run_multi with the same RunControl / NaN-Inf rails as the
  /// guarded run() overload.
  void run_multi(const V* X, V* Y, int k, RunControl* control,
                 bool check_numerics = false) const;

  /// First-touch placement of caller-owned x/y buffers through the
  /// current plan: each worker touches the rows and x slice of its home
  /// range (no-op for plain plans). Either pointer may be null.
  void warm_up(V* x, V* y) const;

  /// Seconds per SpMV the way the paper measures it: `reps` batches of
  /// `iterations` consecutive operations on a random input vector. The
  /// paper's number is the returned min; compare() ranks by median and
  /// IQR. Honours opt.control and opt.check_numerics (see MeasureOptions).
  Samples measure(const MeasureOptions& opt = {}) const;

  /// Seconds per SpMM (one multiply of all k vectors), same methodology
  /// as measure(). Divide by k for the effective per-vector time the
  /// crossover analysis compares against measure().
  Samples measure_multi(int k, const MeasureOptions& opt = {}) const;

 private:
  SpmvEngine() = default;
  void build_plan();

  /// Type-erased threaded execution plan (one ThreadedSpmv<F> behind
  /// virtuals); absent when threads_ == 0.
  struct Plan {
    virtual ~Plan() = default;
    virtual void run(const V* x, V* y, Impl impl,
                     RunControl* control) const = 0;
    virtual void run_multi(const V* X, V* Y, int k, Impl impl,
                           RunControl* control) const = 0;
    virtual void warm_up(V* x, V* y) const = 0;
  };
  template <class F>
  struct TypedPlan;

  std::unique_ptr<PreparedExecutor<V>> owned_;  ///< null when borrowing
  const AnyFormat<V>* fmt_ = nullptr;
  std::unique_ptr<Plan> plan_;
  int threads_ = 0;
  ExecBackend backend_ = ExecBackend::kTasks;
};

extern template class SpmvEngine<float>;
extern template class SpmvEngine<double>;

}  // namespace bspmv
