#include "src/util/timing.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/macros.hpp"
#include "src/util/run_control.hpp"

namespace bspmv {

namespace {

// Quantile q of sorted `xs` by linear interpolation between order
// statistics.
double quantile(const std::vector<double>& xs, double q) {
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

}  // namespace

Samples summarize(std::vector<double> seconds, std::uint64_t iterations) {
  BSPMV_CHECK_MSG(!seconds.empty(), "summarize needs at least one batch");
  std::vector<double> sorted = seconds;
  std::sort(sorted.begin(), sorted.end());
  Samples s;
  s.seconds = std::move(seconds);
  s.iterations = iterations;
  s.min = sorted.front();
  s.median = quantile(sorted, 0.5);
  s.iqr = quantile(sorted, 0.75) - quantile(sorted, 0.25);
  return s;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kFaster: return "faster";
    case Verdict::kSlower: return "slower";
    case Verdict::kIndistinguishable: return "indistinguishable";
  }
  return "?";
}

Verdict compare(const Samples& a, const Samples& b) {
  const double floor = std::max(a.iqr, b.iqr);
  if (std::abs(a.median - b.median) <= floor)
    return Verdict::kIndistinguishable;
  return a.median < b.median ? Verdict::kFaster : Verdict::kSlower;
}

std::vector<Samples> Measurement::run(
    const std::vector<std::function<void()>>& arms) const {
  BSPMV_CHECK_MSG(batches > 0 && warmup >= 0 && iterations > 0 &&
                      min_batch_seconds >= 0.0 && !arms.empty(),
                  "Measurement needs batches >= 1, warmup >= 0, "
                  "iterations >= 1, min_batch_seconds >= 0 and an arm");
  const std::size_t n = arms.size();
  std::vector<std::uint64_t> size(n, iterations);
  std::vector<std::vector<double>> seconds(n);

  auto timed = [&](std::size_t i) {
    if (control) control->check();
    Timer t;
    for (std::uint64_t k = 0; k < size[i]; ++k) arms[i]();
    return t.elapsed();
  };
  auto keep = [&](std::size_t i, double s) {
    seconds[i].push_back(s / static_cast<double>(size[i]));
    if (after_batch) after_batch(i);
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (control) control->check();
    for (int k = 0; k < warmup; ++k) arms[i]();
    if (min_batch_seconds <= 0.0) continue;
    // Grow until a batch runs long enough to dominate timer noise: at
    // least double, overshooting toward the target to converge fast.
    for (;;) {
      const double s = timed(i);
      if (s >= min_batch_seconds) {
        keep(i, s);
        break;
      }
      const double scale =
          std::max(2.0, 1.4 * min_batch_seconds / std::max(s, 1e-9));
      size[i] = static_cast<std::uint64_t>(
                    static_cast<double>(size[i]) * scale) + 1;
    }
  }

  const int first = min_batch_seconds > 0.0 ? 1 : 0;
  for (int b = first; b < batches; ++b)
    for (std::size_t i = 0; i < n; ++i) keep(i, timed(i));

  std::vector<Samples> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(summarize(std::move(seconds[i]), size[i]));
  return out;
}

Samples Measurement::run(const std::function<void()>& fn) const {
  return std::move(run(std::vector<std::function<void()>>{fn}).front());
}

}  // namespace bspmv
