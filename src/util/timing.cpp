#include "src/util/timing.hpp"

#include <algorithm>

#include "src/util/macros.hpp"

namespace bspmv {

double median_of(std::vector<double> xs) {
  BSPMV_DBG_ASSERT(!xs.empty());
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return (n % 2 == 1) ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

MeasureResult summarize(const std::vector<double>& per_iter, double total,
                        std::uint64_t iterations) {
  MeasureResult r;
  r.seconds_per_iter = *std::min_element(per_iter.begin(), per_iter.end());
  r.median_seconds = median_of(per_iter);
  r.total_seconds = total;
  r.iterations = iterations;
  return r;
}

}  // namespace

MeasureResult time_repeated(const std::function<void()>& fn, int iters,
                            int reps, int warmup) {
  BSPMV_CHECK(iters > 0 && reps > 0 && warmup >= 0);
  for (int i = 0; i < warmup; ++i) fn();

  std::vector<double> per_iter;
  per_iter.reserve(static_cast<std::size_t>(reps));
  Timer total;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    for (int i = 0; i < iters; ++i) fn();
    per_iter.push_back(t.elapsed() / iters);
  }
  return summarize(per_iter, total.elapsed(),
                   static_cast<std::uint64_t>(iters) * reps);
}

MeasureResult time_adaptive(const std::function<void()>& fn,
                            double min_batch_seconds, int reps) {
  BSPMV_CHECK(min_batch_seconds > 0 && reps > 0);
  // Grow the batch until it runs long enough to dominate timer noise.
  std::uint64_t batch = 1;
  double batch_time = 0.0;
  for (;;) {
    Timer t;
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    batch_time = t.elapsed();
    if (batch_time >= min_batch_seconds) break;
    // At least double; overshoot toward the target to converge fast.
    const double scale =
        std::max(2.0, 1.4 * min_batch_seconds / std::max(batch_time, 1e-9));
    batch = static_cast<std::uint64_t>(static_cast<double>(batch) * scale) + 1;
  }

  std::vector<double> per_iter;
  per_iter.reserve(static_cast<std::size_t>(reps));
  per_iter.push_back(batch_time / static_cast<double>(batch));
  Timer total;
  for (int r = 1; r < reps; ++r) {
    Timer t;
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    per_iter.push_back(t.elapsed() / static_cast<double>(batch));
  }
  return summarize(per_iter, total.elapsed() + batch_time,
                   batch * static_cast<std::uint64_t>(reps));
}

}  // namespace bspmv
