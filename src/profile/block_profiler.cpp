#include "src/profile/block_profiler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/core/candidates.hpp"
#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/vbl.hpp"
#include "src/kernels/spmv.hpp"
#include "src/profile/comm_bench.hpp"
#include "src/profile/stream_bench.hpp"
#include "src/util/macros.hpp"
#include "src/util/prng.hpp"
#include "src/util/timing.hpp"

namespace bspmv {

namespace {

template <class V>
Csr<V> make_dense(index_t n) {
  Coo<V> coo(n, n);
  coo.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  Xoshiro256 rng(42);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      coo.add(i, j, static_cast<V>(0.5 + rng.uniform()));
  return Csr<V>::from_coo(std::move(coo));
}

// Round down to a multiple of 8 (every block dimension divides the matrix
// evenly, so profiled blocks are full-speed interior blocks), min 16.
index_t round_dim(double x) {
  auto n = static_cast<index_t>(x);
  n -= n % 8;
  return std::max<index_t>(n, 16);
}

struct Sizes {
  index_t small_n;  ///< dense matrix resident in L1
  index_t large_n;  ///< dense matrix exceeding the LLC
};

// Working set of the nof-profiling matrix relative to the effective LLC.
// The STREAM arrays are sized to the same total so the measured BW and
// the measured t_real live in the same memory regime — otherwise eq. (4)
// clamps at 0 or 1.
inline double llc_factor(bool quick) { return quick ? 1.5 : 3.0; }

template <class V>
Sizes pick_sizes(const CacheInfo& cache, bool quick) {
  const double entry = sizeof(V) + sizeof(index_t);
  // Matrix arrays at ~half of L1 leaves room for x, y and the stack.
  const auto small_n =
      round_dim(std::sqrt(static_cast<double>(cache.l1d_bytes) / 2 / entry));
  const auto large_n = round_dim(std::sqrt(
      llc_factor(quick) * static_cast<double>(cache.llc_bytes) / entry));
  return {small_n, large_n};
}

// Per-call wall time of fn: the minimum over batches grown to a
// 5 ms (quick) or 20 ms window, the paper's "best observed" time. One
// scheduler hiccup only slows the batch it hits, never the minimum.
double time_kernel(const std::function<void()>& fn, const ProfileOptions& opt) {
  const Measurement m{.batches = opt.quick ? 2 : 3,
                      .warmup = 0,
                      .min_batch_seconds = opt.quick ? 5e-3 : 20e-3,
                      .control = opt.control};
  return m.run(fn).min;
}

template <class V>
void profile_precision(MachineProfile& profile, const ProfileOptions& opt,
                       const CacheInfo& cache) {
  const Sizes sz = pick_sizes<V>(cache, opt.quick);
  constexpr Precision prec = precision_of<V>;

  const Csr<V> small_csr = make_dense<V>(sz.small_n);
  const Csr<V> large_csr = make_dense<V>(sz.large_n);
  aligned_vector<V> xs(static_cast<std::size_t>(sz.small_n), V{1});
  aligned_vector<V> ys(static_cast<std::size_t>(sz.small_n), V{0});
  aligned_vector<V> xl(static_cast<std::size_t>(sz.large_n), V{1});
  aligned_vector<V> yl(static_cast<std::size_t>(sz.large_n), V{0});

  const std::vector<Impl> impls =
      opt.include_simd ? std::vector<Impl>{Impl::kScalar, Impl::kSimd}
                       : std::vector<Impl>{Impl::kScalar};

  // Measure one kernel: t_b on the L1-resident matrix (eq. 2), then nof
  // on the LLC-exceeding matrix (eq. 4).
  auto profile_one = [&](const std::string& id, std::size_t nb_small,
                         std::size_t nb_large, std::size_t ws_large,
                         const std::function<void()>& run_small,
                         const std::function<void()>& run_large) {
    if (opt.control) opt.control->check();
    const double t_small = time_kernel(run_small, opt);
    const double tb = t_small / static_cast<double>(nb_small);

    const double t_real = time_kernel(run_large, opt);
    const double t_mem =
        static_cast<double>(ws_large) / profile.bandwidth_bps;
    double nof =
        (t_real - t_mem) / (static_cast<double>(nb_large) * tb);
    nof = std::clamp(nof, 0.0, 1.0);

    profile.set_kernel(prec, id, KernelProfile{tb, nof});
    if (opt.verbose)
      std::fprintf(stderr, "  [%s/%s] tb=%.3g ns  nof=%.3f\n",
                   precision_name(prec), id.c_str(), tb * 1e9, nof);
  };

  // CSR: the degenerate 1x1 blocking, nb = nnz.
  for (Impl impl : impls) {
    profile_one(
        csr_kernel_id(impl), small_csr.nnz(), large_csr.nnz(),
        large_csr.working_set_bytes(),
        [&] { spmv(small_csr, xs.data(), ys.data(), impl); },
        [&] { spmv(large_csr, xl.data(), yl.data(), impl); });
  }

  // BCSR, every shape (conversions are dropped after each measurement to
  // bound peak memory).
  for (BlockShape shape : bcsr_shapes()) {
    const Bcsr<V> ms = Bcsr<V>::from_csr(small_csr, shape);
    const Bcsr<V> ml = Bcsr<V>::from_csr(large_csr, shape);
    for (Impl impl : impls) {
      const Candidate c{FormatKind::kBcsr, shape, 0, impl};
      profile_one(
          c.kernel_id(), ms.blocks(), ml.blocks(), ml.working_set_bytes(),
          [&] { spmv(ms, xs.data(), ys.data(), impl); },
          [&] { spmv(ml, xl.data(), yl.data(), impl); });
    }
  }

  // BCSD, every diagonal length.
  for (int b : bcsd_sizes()) {
    const Bcsd<V> ms = Bcsd<V>::from_csr(small_csr, b);
    const Bcsd<V> ml = Bcsd<V>::from_csr(large_csr, b);
    for (Impl impl : impls) {
      const Candidate c{FormatKind::kBcsd, BlockShape{1, 1}, b, impl};
      profile_one(
          c.kernel_id(), ms.blocks(), ml.blocks(), ml.working_set_bytes(),
          [&] { spmv(ms, xs.data(), ys.data(), impl); },
          [&] { spmv(ml, xl.data(), yl.data(), impl); });
    }
  }

  // 1D-VBL: not ranked by the models, but benched (scalar only, as in
  // the paper's Table II).
  {
    const Vbl<V> ms = Vbl<V>::from_csr(small_csr);
    const Vbl<V> ml = Vbl<V>::from_csr(large_csr);
    const Candidate c{FormatKind::kVbl, BlockShape{1, 1}, 0, Impl::kScalar};
    profile_one(
        c.kernel_id(), ms.blocks(), ml.blocks(), ml.working_set_bytes(),
        [&] { spmv(ms, xs.data(), ys.data(), Impl::kScalar); },
        [&] { spmv(ml, xl.data(), yl.data(), Impl::kScalar); });
  }
}

}  // namespace

MachineProfile profile_machine(const ProfileOptions& opt) {
  CacheInfo cache = opt.detect_cache ? detect_cache_info() : opt.cache;
  cache.llc_bytes = std::min(cache.llc_bytes, opt.max_effective_llc);

  MachineProfile profile;
  profile.description = "blockspmv profile (L1=" +
                        std::to_string(cache.l1d_bytes / 1024) + "KiB, LLC=" +
                        std::to_string(cache.llc_bytes / 1024 / 1024) + "MiB)";

  StreamOptions sopt;
  sopt.control = opt.control;
  // Three STREAM arrays totalling the nof matrix's working set: BW and
  // t_real are then measured in the same memory regime (see llc_factor).
  sopt.array_bytes = std::max<std::size_t>(
      static_cast<std::size_t>(llc_factor(opt.quick) *
                               static_cast<double>(cache.llc_bytes) / 3.0),
      4u << 20);
  if (opt.quick) sopt.trials = 2;
  if (opt.verbose) std::fprintf(stderr, "profiling memory bandwidth...\n");
  profile.bandwidth_bps =
      opt.bandwidth_bps > 0 ? opt.bandwidth_bps : stream_triad_bandwidth(sopt);
  if (opt.verbose) std::fprintf(stderr, "profiling wire comm (alpha/beta)...\n");
  const CommProfile comm = profile_comm(opt.quick);
  profile.comm_alpha_seconds = comm.alpha_seconds;
  profile.comm_beta_bps = comm.beta_bps;
  if (opt.verbose)
    std::fprintf(stderr, "BW=%.2f GiB/s\n",
                 profile.bandwidth_bps / (1u << 30));

  if (opt.verbose) std::fprintf(stderr, "profiling kernels (double)...\n");
  profile_precision<double>(profile, opt, cache);
  if (opt.verbose) std::fprintf(stderr, "profiling kernels (float)...\n");
  profile_precision<float>(profile, opt, cache);
  return profile;
}

MachineProfile load_or_profile(const std::string& path,
                               const ProfileOptions& opt) {
  if (auto p = MachineProfile::try_load(path)) return *p;
  MachineProfile p = profile_machine(opt);
  p.save(path);
  return p;
}

}  // namespace bspmv
