// Reproduces the custom latency-diagnosis benchmark of §V-B: zero out the
// CSR col_ind structure so that every input-vector access hits x[0] — no
// cache misses from irregular accesses remain. Matrices whose performance
// jumps are latency-bound, not bandwidth-bound (the paper found #12, #14,
// #15, #28 in this class, with wikipedia's performance quadrupling).
#include <cstdio>

#include "bench/harness.hpp"
#include "src/kernels/spmv.hpp"
#include "src/util/prng.hpp"

using namespace bspmv;
using namespace bspmv::bench;

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;

  // Default: the paper's latency-bound suspects plus two regular
  // (bandwidth-bound) matrices for contrast.
  std::vector<int> ids = cfg.matrix_ids;
  if (ids.empty()) ids = {12, 14, 15, 28, 20, 23};

  std::printf("Latency diagnosis (zeroed col_ind), double precision CSR, "
              "scale=%s\n",
              suite_scale_name(cfg.scale));
  print_rule(88);
  std::printf("%-18s %12s %12s %10s\n", "matrix", "t_normal(ms)",
              "t_zeroed(ms)", "speedup");
  print_rule(88);

  const Measurement m{.batches = cfg.measure.reps,
                      .warmup = cfg.measure.warmup,
                      .iterations =
                          static_cast<std::uint64_t>(cfg.measure.iterations)};
  for (int id : ids) {
    Csr<double> a = build_suite_csr<double>(id, cfg.scale);

    aligned_vector<double> x(static_cast<std::size_t>(a.cols()));
    Xoshiro256 rng(1);
    for (auto& e : x) e = rng.uniform() - 0.5;
    aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

    const double t_norm = m.run([&] { spmv(a, x.data(), y.data()); }).min;

    // The §V-B trick: all column indices set to zero — identical traffic
    // for the matrix arrays, zero irregularity on the input vector.
    std::fill(a.mutable_col_ind().begin(), a.mutable_col_ind().end(), 0);
    const double t_zero = m.run([&] { spmv(a, x.data(), y.data()); }).min;
    do_not_optimize(y.data());

    std::printf("%02d.%-15s %12.3f %12.3f %9.2fx\n", id,
                suite_catalog()[static_cast<size_t>(id - 1)].name.c_str(),
                t_norm * 1e3, t_zero * 1e3, t_norm / t_zero);
  }
  print_rule(88);
  std::printf("speedup >> 1 indicates a latency-bound matrix (irregular "
              "input-vector access), cf. paper §V-B\n");
  return 0;
}
