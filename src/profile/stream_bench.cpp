#include "src/profile/stream_bench.hpp"

#include <algorithm>
#include <numeric>

#include "src/util/aligned.hpp"
#include "src/util/macros.hpp"
#include "src/util/prng.hpp"
#include "src/util/timing.hpp"

namespace bspmv {

double stream_triad_bandwidth(const StreamOptions& opt) {
  BSPMV_CHECK(opt.array_bytes >= 1024 && opt.trials >= 1);
  const std::size_t n = opt.array_bytes / sizeof(double);
  aligned_vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;

  // One pass per batch; the warm-up pass faults the pages in.
  const Measurement m{.batches = opt.trials, .control = opt.control};
  const double best = m.run([&] {
                         double* BSPMV_RESTRICT pa = a.data();
                         const double* BSPMV_RESTRICT pb = b.data();
                         const double* BSPMV_RESTRICT pc = c.data();
                         for (std::size_t i = 0; i < n; ++i)
                           pa[i] = pb[i] + s * pc[i];
                         clobber_memory();
                       }).min;
  do_not_optimize(a[n / 2]);
  // Triad traffic: read b, read c, write a (write-allocate adds a read
  // of a too, but STREAM's convention counts 3 arrays — we follow it).
  return 3.0 * static_cast<double>(opt.array_bytes) / best;
}

double stream_read_bandwidth(const StreamOptions& opt) {
  BSPMV_CHECK(opt.array_bytes >= 1024 && opt.trials >= 1);
  const std::size_t n = opt.array_bytes / sizeof(double);
  aligned_vector<double> a(n, 1.0);

  double sink = 0.0;
  const Measurement m{.batches = opt.trials, .control = opt.control};
  const double best = m.run([&] {
                         const double* BSPMV_RESTRICT pa = a.data();
                         double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                         std::size_t i = 0;
                         for (; i + 4 <= n; i += 4) {
                           s0 += pa[i];
                           s1 += pa[i + 1];
                           s2 += pa[i + 2];
                           s3 += pa[i + 3];
                         }
                         for (; i < n; ++i) s0 += pa[i];
                         sink += s0 + s1 + s2 + s3;
                         clobber_memory();
                       }).min;
  do_not_optimize(sink);
  return static_cast<double>(opt.array_bytes) / best;
}

double memory_latency_seconds(std::size_t buffer_bytes) {
  BSPMV_CHECK(buffer_bytes >= 4096);
  const std::size_t stride = kCacheLineBytes / sizeof(std::uint64_t);
  const std::size_t lines = buffer_bytes / kCacheLineBytes;
  aligned_vector<std::uint64_t> buf(lines * stride, 0);

  // Random cyclic permutation over cache lines (Sattolo's algorithm) so
  // every load depends on the previous one and spans the whole buffer.
  std::vector<std::size_t> order(lines);
  std::iota(order.begin(), order.end(), 0);
  Xoshiro256 rng(0x1a7e9c1eULL);
  for (std::size_t i = lines - 1; i > 0; --i) {
    const std::size_t j = rng.below(i);
    std::swap(order[i], order[j]);
  }
  for (std::size_t i = 0; i < lines; ++i)
    buf[order[i] * stride] = order[(i + 1) % lines] * stride;

  // Warm-up chase, then timed chase.
  const std::size_t hops = std::max<std::size_t>(lines * 2, 1u << 20);
  std::uint64_t p = order[0] * stride;
  for (std::size_t i = 0; i < lines; ++i) p = buf[p];
  Timer timer;
  for (std::size_t i = 0; i < hops; ++i) p = buf[p];
  const double secs = timer.elapsed();
  do_not_optimize(p);
  return secs / static_cast<double>(hops);
}

}  // namespace bspmv
