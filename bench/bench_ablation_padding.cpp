// Ablation: padding vs decomposition as the block-density of the matrix
// degrades — the §III trade-off. Sweeps the block fill probability of a
// FEM-like generator and reports, for BCSR 3x3-class blocking: the
// padding ratio, the decomposed remainder fraction, and measured times of
// CSR vs BCSR (padding) vs BCSR-DEC (no padding) vs BCSD/BCSD-DEC.
#include <cstdio>

#include "bench/harness.hpp"
#include "src/core/engine.hpp"
#include "src/formats/stats.hpp"
#include "src/gen/generators.hpp"

using namespace bspmv;
using namespace bspmv::bench;

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  cli.add_option("nodes", "30000", "FEM-like generator node count");
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;
  const auto nodes = static_cast<index_t>(cli.get_int("nodes"));

  std::printf("Padding-vs-decomposition ablation (FEM-like, 3 dof/node, "
              "%d nodes, BCSR 3x2)\n", nodes);
  print_rule(96);
  std::printf("%5s %10s %10s %12s %12s %12s %12s %12s\n", "fill",
              "pad-ratio", "rem-frac", "csr(ms)", "bcsr(ms)",
              "bcsrdec(ms)", "bcsd(ms)", "bcsddec(ms)");
  print_rule(96);

  const BlockShape shape{3, 2};
  for (double fill : {1.0, 0.9, 0.75, 0.5, 0.25, 0.0}) {
    const Csr<double> a = Csr<double>::from_coo(gen_blocked_band<double>(
        nodes, 3, nodes / 12, 5, fill, 0xab + static_cast<uint64_t>(fill * 100)));

    const BlockStats st = bcsr_stats(a, shape);
    const DecompStats ds = bcsr_dec_stats(a, shape);
    const double pad_ratio =
        static_cast<double>(st.padding()) / static_cast<double>(st.stored_values);
    const double rem_frac =
        static_cast<double>(ds.remainder_nnz) / static_cast<double>(a.nnz());

    auto measure = [&](const Candidate& c) {
      return SpmvEngine<double>::prepare(a, c).measure(cfg.measure).min * 1e3;
    };
    const double t_csr = measure(Candidate{});
    const double t_bcsr =
        measure(Candidate{FormatKind::kBcsr, shape, 0, Impl::kScalar});
    const double t_dec =
        measure(Candidate{FormatKind::kBcsrDec, shape, 0, Impl::kScalar});
    const double t_bcsd =
        measure(Candidate{FormatKind::kBcsd, BlockShape{1, 1}, 3,
                          Impl::kScalar});
    const double t_bcsddec =
        measure(Candidate{FormatKind::kBcsdDec, BlockShape{1, 1}, 3,
                          Impl::kScalar});

    std::printf("%5.2f %9.1f%% %9.1f%% %12.3f %12.3f %12.3f %12.3f %12.3f\n",
                fill, 100 * pad_ratio, 100 * rem_frac, t_csr, t_bcsr, t_dec,
                t_bcsd, t_bcsddec);
  }
  print_rule(96);
  std::printf("expected shape: BCSR wins at high fill; decomposition "
              "tolerates low fill; CSR wins when nothing blocks\n");
  return 0;
}
