#include "src/profile/sampling.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/util/macros.hpp"
#include "src/util/timing.hpp"

namespace bspmv {

SampleStats robust_samples(const std::function<double()>& draw,
                           const SamplePolicy& policy, RunControl* control) {
  BSPMV_CHECK_MSG(policy.min_samples >= 1, "min_samples must be >= 1");
  BSPMV_CHECK_MSG(policy.max_retries >= 0, "max_retries must be >= 0");
  BSPMV_CHECK_MSG(policy.mad_gate > 0, "mad_gate must be positive");

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(policy.min_samples) + 2);
  SampleStats stats;

  auto draw_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      if (control) control->check();
      samples.push_back(draw());
    }
  };

  draw_n(policy.min_samples);
  for (;;) {
    const double med = median_of(samples);
    std::vector<double> dev;
    dev.reserve(samples.size());
    for (double s : samples) dev.push_back(std::abs(s - med));
    // Floor the MAD so identical samples (quiet machine, coarse clock)
    // do not turn the gate into an equality test.
    const double mad = std::max(median_of(dev), 5e-3 * std::abs(med));

    std::vector<double> accepted;
    accepted.reserve(samples.size());
    int rejected = 0;
    for (double s : samples) {
      if (std::abs(s - med) <= policy.mad_gate * mad)
        accepted.push_back(s);
      else
        ++rejected;
    }

    if (static_cast<int>(accepted.size()) >= policy.min_samples ||
        stats.retries >= policy.max_retries) {
      // Survivors win even when short: a degraded estimate beats a
      // wedged profiler (graceful degradation, DESIGN.md §7).
      const std::vector<double>& pool = accepted.empty() ? samples : accepted;
      stats.best = *std::min_element(pool.begin(), pool.end());
      stats.median = median_of(pool);
      stats.accepted = static_cast<int>(pool.size());
      stats.rejected += rejected;
      return stats;
    }

    ++stats.retries;
    stats.rejected += rejected;
    if (policy.backoff_seconds > 0) {
      const double backoff =
          policy.backoff_seconds * static_cast<double>(1 << (stats.retries - 1));
      if (control) control->check();
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    // Keep the survivors, replace the outliers with fresh draws.
    samples = std::move(accepted);
    draw_n(policy.min_samples - static_cast<int>(samples.size()));
  }
}

}  // namespace bspmv
