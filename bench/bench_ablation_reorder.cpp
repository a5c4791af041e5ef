// Ablation: row reordering to recover blockability (Pinar & Heath [12],
// cited in §I). Takes a block-structured FEM-like matrix, destroys row
// locality with a random shuffle, then applies the similarity reordering,
// reporting BCSR fill and measured SpMV time at each stage.
#include <cstdio>
#include <numeric>

#include "bench/harness.hpp"
#include "src/core/engine.hpp"
#include "src/core/reorder.hpp"
#include "src/formats/permute.hpp"
#include "src/formats/stats.hpp"
#include "src/gen/generators.hpp"
#include "src/util/prng.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

std::vector<index_t> random_shuffle_perm(index_t n, std::uint64_t seed) {
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Xoshiro256 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  return perm;
}

struct Stage {
  const char* name;
  const Csr<double>* a;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  cli.add_option("nodes", "40000", "FEM-like generator node count");
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;
  const auto nodes = static_cast<index_t>(cli.get_int("nodes"));

  const Csr<double> original = Csr<double>::from_coo(
      gen_blocked_band<double>(nodes, 3, nodes / 10, 5, 0.9, 0xf00d));
  const Csr<double> shuffled =
      permute_rows(original, random_shuffle_perm(original.rows(), 0x5847));
  const Csr<double> reordered =
      permute_rows(shuffled, similarity_reorder(shuffled));

  const BlockShape shape{3, 2};
  std::printf("Row-reordering ablation (FEM-like, 3 dof/node, %d nodes, "
              "BCSR %s)\n",
              nodes, shape.to_string().c_str());
  print_rule(86);
  std::printf("%-12s %12s %12s %14s %14s %14s\n", "stage", "fill(3x2)",
              "blocks", "csr(ms)", "bcsr(ms)", "best fmt(ms)");
  print_rule(86);

  const Stage stages[] = {
      {"original", &original}, {"shuffled", &shuffled},
      {"reordered", &reordered}};
  for (const Stage& st : stages) {
    const BlockStats bs = bcsr_stats(*st.a, shape);
    auto measure = [&](const Candidate& c) {
      return SpmvEngine<double>::prepare(*st.a, c).measure(cfg.measure).min *
             1e3;
    };
    const double t_csr = measure(Candidate{});
    const double t_bcsr =
        measure(Candidate{FormatKind::kBcsr, shape, 0, Impl::kSimd});
    const double t_dec =
        measure(Candidate{FormatKind::kBcsrDec, shape, 0, Impl::kSimd});
    std::printf("%-12s %12.3f %12zu %14.3f %14.3f %14.3f\n", st.name,
                bs.fill(), bs.blocks, t_csr, t_bcsr, std::min(t_bcsr, t_dec));
  }
  print_rule(86);
  std::printf("expected shape: the shuffle collapses fill and inflates BCSR "
              "time; reordering recovers most of both\n");
  return 0;
}
