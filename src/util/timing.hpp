// Measurement substrate for the benchmark harnesses and profilers.
//
// The paper times 100 consecutive SpMV operations; we expose the same
// pattern (`time_repeated`) plus an adaptive variant that keeps measuring
// until the total elapsed time is long enough for a stable per-iteration
// estimate.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace bspmv {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double elapsed() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Result of a repeated-run measurement.
struct MeasureResult {
  double seconds_per_iter = 0.0;  ///< best (minimum) per-iteration time
  double median_seconds = 0.0;    ///< median per-iteration time
  double total_seconds = 0.0;     ///< wall time spent measuring
  std::uint64_t iterations = 0;   ///< iterations actually executed
};

/// Median of a non-empty sample (the mean of the two middle values when
/// the count is even).
double median_of(std::vector<double> xs);

/// Run `fn` exactly `iters` times (after `warmup` unmeasured runs) in
/// `reps` back-to-back batches and report per-iteration statistics.
/// Mirrors the paper's "100 consecutive SpMV operations" methodology.
MeasureResult time_repeated(const std::function<void()>& fn, int iters,
                            int reps = 3, int warmup = 2);

/// Adaptive measurement: grows the batch size until one batch takes at
/// least `min_batch_seconds`, then reports per-iteration statistics over
/// `reps` batches. Used by the profilers where per-call cost spans orders
/// of magnitude.
MeasureResult time_adaptive(const std::function<void()>& fn,
                            double min_batch_seconds = 20e-3, int reps = 3);

/// Prevents the optimiser from discarding a computed value.
template <class T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Full write barrier for streaming benchmarks.
inline void clobber_memory() { asm volatile("" : : : "memory"); }

}  // namespace bspmv
