// Measurement substrate: the one way the library, its benches and its
// tools time code (docs/observability.md, "How the code measures"). A
// Measurement times interleaved batches of one or more arms; each arm's
// Samples carry the minimum (the paper's "best observed" time), the
// median and the IQR, and compare() calls two arms different only when
// their gap clears the spread they showed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace bspmv {

class RunControl;

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

/// One arm's per-batch times and their summary.
struct Samples {
  std::vector<double> seconds;   ///< seconds per call of each batch, run order
  std::uint64_t iterations = 0;  ///< calls per batch
  double min = 0.0;     ///< best batch: the paper's estimator
  double median = 0.0;  ///< typical batch: what compare() ranks by
  double iqr = 0.0;     ///< interquartile range: the noise compare() allows
};

/// Samples over `seconds` (non-empty) with min, median and IQR filled in.
/// Quartiles interpolate linearly between order statistics.
Samples summarize(std::vector<double> seconds, std::uint64_t iterations = 0);

/// Outcome of comparing two arms.
enum class Verdict { kFaster, kSlower, kIndistinguishable };

/// "faster", "slower" or "indistinguishable".
const char* verdict_name(Verdict v);

/// `a` against `b`: faster or slower only when the medians differ by
/// more than the larger of the two IQRs, indistinguishable otherwise.
Verdict compare(const Samples& a, const Samples& b);

/// The timing primitive. Fill in the fields, then run() one arm or
/// several; every call of an arm is one timed iteration.
struct Measurement {
  int batches = 3;  ///< timed batches per arm
  int warmup = 1;   ///< unmeasured calls of each arm before its batches
  /// Calls per batch; with min_batch_seconds > 0, the size to grow from.
  std::uint64_t iterations = 1;
  /// > 0: grow each arm's batch until one batch takes at least this
  /// long. The growth batch that reaches it counts as the arm's first
  /// batch; the remaining ones are interleaved.
  double min_batch_seconds = 0.0;
  /// Polled with check() before every batch, so a deadline or a cancel
  /// stops the measurement between batches with the control's typed
  /// error. Non-owning; nullptr disables.
  RunControl* control = nullptr;
  /// Called with the arm's index after each of its timed batches, off
  /// the clock (a result check, a per-batch statistic).
  std::function<void(std::size_t arm)> after_batch = nullptr;

  /// Time `arms` batch by batch: batch b of every arm, in arm order,
  /// before batch b + 1 of any.
  std::vector<Samples> run(
      const std::vector<std::function<void()>>& arms) const;
  /// Time one arm.
  Samples run(const std::function<void()>& fn) const;
};

/// Prevents the optimiser from discarding a computed value.
template <class T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Full write barrier for streaming benchmarks.
inline void clobber_memory() { asm volatile("" : : : "memory"); }

}  // namespace bspmv
