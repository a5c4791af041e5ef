// Ablation (cf. the authors' block-shape study [9]): how the BCSR block
// shape and kernel implementation affect SpMV performance on a dense
// matrix (zero padding for every shape) — isolating the computational
// behaviour of each block kernel from fill effects.
#include <cstdio>

#include "bench/harness.hpp"
#include "src/gen/generators.hpp"
#include "src/kernels/spmv.hpp"
#include "src/util/prng.hpp"

using namespace bspmv;
using namespace bspmv::bench;

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  cli.add_option("n", "840", "dense matrix dimension (840 = lcm(1..8))");
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;

  const index_t n = static_cast<index_t>(cli.get_int("n"));
  const Csr<double> a = Csr<double>::from_coo(gen_dense<double>(n, n, 7));
  aligned_vector<double> x(static_cast<std::size_t>(n));
  Xoshiro256 rng(2);
  for (auto& e : x) e = rng.uniform() - 0.5;
  aligned_vector<double> y(static_cast<std::size_t>(n), 0.0);

  const Measurement m{.batches = cfg.measure.reps,
                      .warmup = cfg.measure.warmup,
                      .iterations =
                          static_cast<std::uint64_t>(cfg.measure.iterations)};
  auto time_it = [&](const std::function<void()>& fn) {
    return m.run(fn).min;
  };

  const double flops = 2.0 * static_cast<double>(a.nnz());
  const double csr_t = time_it([&] { spmv(a, x.data(), y.data()); });

  std::printf("Block-shape ablation on a %dx%d dense matrix "
              "(zero padding for all shapes)\n",
              n, n);
  std::printf("CSR scalar baseline: %.3f ms (%.2f GFLOP/s)\n", csr_t * 1e3,
              flops / csr_t / 1e9);
  print_rule(70);
  std::printf("%-7s %10s %12s %12s %12s %8s\n", "shape", "blocks",
              "scalar(ms)", "simd(ms)", "GFLOP/s", "vs CSR");
  print_rule(70);

  for (BlockShape shape : bcsr_shapes()) {
    const Bcsr<double> m = Bcsr<double>::from_csr(a, shape);
    const double ts =
        time_it([&] { spmv(m, x.data(), y.data(), Impl::kScalar); });
    const double tv =
        time_it([&] { spmv(m, x.data(), y.data(), Impl::kSimd); });
    const double best = std::min(ts, tv);
    std::printf("%-7s %10zu %12.3f %12.3f %12.2f %7.2fx\n",
                shape.to_string().c_str(), m.blocks(), ts * 1e3, tv * 1e3,
                flops / best / 1e9, csr_t / best);
  }
  print_rule(70);
  do_not_optimize(y.data());
  return 0;
}
