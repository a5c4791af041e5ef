// Multithreaded SpMV driver (OpenMP), generic over every format whose
// FormatOps specialisation opts in with kParallel — for the library that
// is CSR, BCSR, BCSD and the two decomposed variants, matching §V-A
// (1D-VBL is deliberately excluded).
//
// ThreadedSpmv<Format> precomputes one nnz-balanced (padding-aware)
// granule partition per pass (FormatOps<Format>::kPasses). Every library
// format runs one pass — the decomposed formats fold their CSR remainder
// into the block-row loop, so a granule's weight is its blocks' stored
// values plus its rows' remainder nonzeros. run() executes y = A·x with
// each thread owning a disjoint granule range per pass; pass 0 also
// zero-fills the thread's contiguous row range. A format with a second
// pass (dist::HaloDec) gets a barrier between passes because they
// partition rows differently.
//
// Observability: when built with BSPMV_OBSERVE (src/observe/observe.hpp),
// every run() records each thread's kernel wall time and assigned stored
// values (the §V-A partition weights, padding included, summed over all
// passes) under the "parallel/<format>" metric — the per-thread
// load-imbalance telemetry a RunReport exposes.
//
// The template is defined here (not in the .cpp) so formats registered
// outside the library instantiate it too; the five built-in parallel
// formats have extern template declarations below and are compiled once
// in parallel_spmv.cpp.
#pragma once

#include <omp.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/formats/format_ops.hpp"
#include "src/observe/observe.hpp"
#include "src/parallel/partition.hpp"
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

  ThreadedSpmv(const Format& a, int threads);

  /// y = A·x. Without a control this is the paper's driver, one
  /// pass_run per pass per thread. With one, each thread executes its
  /// granule range in kControlChunk slices, polling the control's stop
  /// flag (one relaxed load) and heartbeating between slices; on a
  /// cancellation/deadline/stall the remaining slices are skipped — all
  /// threads still meet every pass barrier, then the caller's
  /// control->check() surfaces the typed error. y is indeterminate after
  /// an aborted run.
  void run(const V* x, V* y, Impl impl = Impl::kScalar,
           RunControl* control = nullptr) const;

  /// Y = A·X for k right-hand sides in the given layout (X cols×k,
  /// Y rows×k — see src/kernels/layout.hpp). Reuses the single-vector
  /// granule partition: a granule's multi-vector work scales uniformly
  /// by k, so the nnz-balanced bounds stay balanced. k == 1 is the
  /// single-vector path (bitwise identical to run()); formats without
  /// the pass_run_multi protocol fall back to one threaded run() per
  /// vector. Cancellation behaves as in run(); Y is indeterminate after
  /// an aborted run.
  void run_multi(const V* X, V* Y, int k, Layout layout,
                 Impl impl = Impl::kScalar,
                 RunControl* control = nullptr) const;
  int threads() const { return threads_; }

 private:
  const Format* a_;
  int threads_;
  /// Granule boundaries per pass, threads_+1 each.
  std::vector<index_t> bounds_[static_cast<std::size_t>(Ops::kPasses)];
  /// Stored values per thread, summed over all passes.
  std::vector<std::size_t> part_weights_;
};

template <class Format>
ThreadedSpmv<Format>::ThreadedSpmv(const Format& a, int threads)
    : a_(&a), threads_(threads) {
  BSPMV_CHECK_MSG(threads >= 1, "thread count must be >= 1");
  for (int pass = 0; pass < Ops::kPasses; ++pass) {
    const auto w = Ops::pass_weights(a, pass);
    auto& bounds = bounds_[static_cast<std::size_t>(pass)];
    bounds = balanced_partition(w, threads_);
    const auto sums = part_weight_sums(w, bounds);
    if (pass == 0) {
      part_weights_ = sums;
    } else {
      for (std::size_t p = 0; p < part_weights_.size(); ++p)
        part_weights_[p] += sums[p];
    }
  }
}

template <class Format>
void ThreadedSpmv<Format>::run(const V* x, V* y, Impl impl,
                               RunControl* control) const {
#pragma omp parallel num_threads(threads_)
  {
    const int tid = omp_get_thread_num();
    BSPMV_OBS_THREAD_TIMER(obs_timer);
    // Publish the control to this thread so deep code (kernels, injected
    // test formats) can poll cancellation without a plumbed parameter.
    RunControl::ScopedCurrent ambient(control);
    for (int pass = 0; pass < Ops::kPasses; ++pass) {
      if (pass > 0) {
        // Later passes partition rows differently, so wait until every
        // earlier-pass contribution has landed before accumulating.
        // Cancellation must never skip this barrier — every thread
        // reaches it on every pass, aborted or not, or the region hangs.
#pragma omp barrier
      }
      const auto& bounds = bounds_[static_cast<std::size_t>(pass)];
      const index_t g0 = bounds[static_cast<std::size_t>(tid)];
      const index_t g1 = bounds[static_cast<std::size_t>(tid) + 1];
      if (control == nullptr) {
        if (pass == 0)
          std::fill(y + Ops::pass_first_row(*a_, 0, g0),
                    y + Ops::pass_first_row(*a_, 0, g1), V{0});
        Ops::pass_run(*a_, pass, g0, g1, x, y, impl);
      } else if (!control->stop_requested()) {
        if (pass == 0)
          std::fill(y + Ops::pass_first_row(*a_, 0, g0),
                    y + Ops::pass_first_row(*a_, 0, g1), V{0});
        for (index_t g = g0; g < g1; g += kControlChunk) {
          if (control->stop_requested()) break;  // one relaxed load
          Ops::pass_run(*a_, pass, g, std::min<index_t>(g1, g + kControlChunk),
                        x, y, impl);
          control->heartbeat(tid);
        }
      }
    }
#if defined(BSPMV_OBSERVE_HOOKS) && BSPMV_OBSERVE_HOOKS
    static const std::string metric = std::string("parallel/") + Ops::kName;
    BSPMV_OBS_THREAD_RECORD(metric.c_str(), tid, obs_timer,
                            part_weights_[static_cast<std::size_t>(tid)]);
#endif
  }
}

template <class Format>
void ThreadedSpmv<Format>::run_multi(const V* X, V* Y, int k, Layout layout,
                                     Impl impl, RunControl* control) const {
  BSPMV_CHECK_MSG(k >= 1, "rhs count must be >= 1");
  if (k == 1) {
    // Both layouts coincide for a single vector; hit the existing path.
    run(X, Y, impl, control);
    return;
  }
  const std::size_t rows = static_cast<std::size_t>(a_->rows());
  const std::size_t cols = static_cast<std::size_t>(a_->cols());
  const std::size_t kk = static_cast<std::size_t>(k);
  if constexpr (!requires(const Format& f, const V* x, V* y) {
                  Ops::pass_run_multi(f, 0, index_t{0}, index_t{0}, x, y, 1,
                                      Layout::kRowMajor, Impl::kScalar);
                }) {
    // Out-of-tree format without the multi-vector protocol: one threaded
    // single-vector run() per right-hand side (row-major pays a
    // deinterleave/reinterleave copy through scratch).
    if (layout == Layout::kColMajor) {
      for (int j = 0; j < k; ++j) {
        if (control != nullptr && control->stop_requested()) return;
        run(X + static_cast<std::size_t>(j) * cols,
            Y + static_cast<std::size_t>(j) * rows, impl, control);
      }
    } else {
      aligned_vector<V> x(cols), y(rows);
      for (int j = 0; j < k; ++j) {
        if (control != nullptr && control->stop_requested()) return;
        for (std::size_t i = 0; i < cols; ++i)
          x[i] = X[i * kk + static_cast<std::size_t>(j)];
        run(x.data(), y.data(), impl, control);
        for (std::size_t i = 0; i < rows; ++i)
          Y[i * kk + static_cast<std::size_t>(j)] = y[i];
      }
    }
    return;
  } else {
#pragma omp parallel num_threads(threads_)
    {
      const int tid = omp_get_thread_num();
      BSPMV_OBS_THREAD_TIMER(obs_timer);
      RunControl::ScopedCurrent ambient(control);
      // Zero-fill a contiguous row range of Y in whichever layout.
      const auto zero_rows = [&](index_t r0, index_t r1) {
        if (layout == Layout::kRowMajor) {
          std::fill(Y + static_cast<std::size_t>(r0) * kk,
                    Y + static_cast<std::size_t>(r1) * kk, V{0});
        } else {
          for (std::size_t j = 0; j < kk; ++j)
            std::fill(Y + j * rows + static_cast<std::size_t>(r0),
                      Y + j * rows + static_cast<std::size_t>(r1), V{0});
        }
      };
      for (int pass = 0; pass < Ops::kPasses; ++pass) {
        if (pass > 0) {
          // Same barrier discipline as run(): every thread reaches every
          // pass barrier, aborted or not.
#pragma omp barrier
        }
        const auto& bounds = bounds_[static_cast<std::size_t>(pass)];
        const index_t g0 = bounds[static_cast<std::size_t>(tid)];
        const index_t g1 = bounds[static_cast<std::size_t>(tid) + 1];
        if (control == nullptr) {
          if (pass == 0)
            zero_rows(Ops::pass_first_row(*a_, 0, g0),
                      Ops::pass_first_row(*a_, 0, g1));
          Ops::pass_run_multi(*a_, pass, g0, g1, X, Y, k, layout, impl);
        } else if (!control->stop_requested()) {
          if (pass == 0)
            zero_rows(Ops::pass_first_row(*a_, 0, g0),
                      Ops::pass_first_row(*a_, 0, g1));
          for (index_t g = g0; g < g1; g += kControlChunk) {
            if (control->stop_requested()) break;  // one relaxed load
            Ops::pass_run_multi(*a_, pass, g,
                                std::min<index_t>(g1, g + kControlChunk), X,
                                Y, k, layout, impl);
            control->heartbeat(tid);
          }
        }
      }
#if defined(BSPMV_OBSERVE_HOOKS) && BSPMV_OBSERVE_HOOKS
      static const std::string metric = std::string("spmm/") + Ops::kName;
      BSPMV_OBS_THREAD_RECORD(metric.c_str(), tid, obs_timer,
                              part_weights_[static_cast<std::size_t>(tid)] *
                                  static_cast<std::size_t>(k));
#endif
    }
  }
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
