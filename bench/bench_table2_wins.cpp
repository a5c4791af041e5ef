// Reproduces Table II: for each configuration {dp, dp-simd, sp, sp-simd},
// how many suite matrices each storage format "wins" (provides the best
// measured SpMV time, taking each format's best block shape). The two
// special matrices (#1 dense, #2 random) are ignored, as in the paper.
#include <cstdio>

#include "bench/harness.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

// Candidates participating in one configuration: every format at its
// shapes with the given impl; 1D-VBL only in the non-simd configurations
// (the paper ran no vectorised 1D-VBL — Table II shows '-').
std::vector<Candidate> config_candidates(Impl impl) {
  std::vector<Candidate> out;
  for (const Candidate& c : bench_candidates(true))
    if (c.impl == impl) out.push_back(c);
  return out;
}

const FormatKind kTableOrder[] = {
    FormatKind::kCsr,  FormatKind::kBcsr, FormatKind::kBcsrDec,
    FormatKind::kBcsd, FormatKind::kBcsdDec, FormatKind::kVbl,
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;
  SweepCache cache(cfg.cache_path, cfg.no_cache);

  std::vector<int> ids = cfg.matrix_ids;
  if (ids.empty())
    for (int i = 3; i <= 30; ++i) ids.push_back(i);  // skip special #1-#2

  // wins[config][format]
  const char* config_names[] = {"dp", "dp-simd", "sp", "sp-simd"};
  std::map<std::string, std::map<FormatKind, int>> wins;

  for (int id : ids) {
    if (cfg.verbose) std::fprintf(stderr, "matrix %d...\n", id);
    const Csr<double> ad = build_suite_csr<double>(id, cfg.scale);
    const Csr<float> af = build_suite_csr<float>(id, cfg.scale);
    const auto all = bench_candidates(true);
    const auto secs_d = sweep_matrix(ad, id, all, cfg, cache);
    const auto secs_f = sweep_matrix(af, id, all, cfg, cache);

    for (int ci = 0; ci < 4; ++ci) {
      const Impl impl = (ci % 2 == 0) ? Impl::kScalar : Impl::kSimd;
      const auto& secs = (ci < 2) ? secs_d : secs_f;
      const auto best = best_per_format(config_candidates(impl), secs);
      FormatKind winner = FormatKind::kCsr;
      double best_t = 1e300;
      for (const auto& [kind, t] : best) {
        if (t < best_t) {
          best_t = t;
          winner = kind;
        }
      }
      ++wins[config_names[ci]][winner];
    }
  }

  std::printf("Table II: number of matrices each format wins per "
              "configuration (scale=%s, %zu matrices, special excluded)\n",
              suite_scale_name(cfg.scale), ids.size());
  print_rule(64);
  std::printf("%-22s %8s %8s %8s %8s\n", "Method/Configuration", "dp",
              "dp-simd", "sp", "sp-simd");
  print_rule(64);
  for (FormatKind kind : kTableOrder) {
    std::printf("%-22s", format_label(kind));
    for (const char* cn : config_names) {
      if (kind == FormatKind::kVbl && std::string(cn).find("simd") !=
                                          std::string::npos) {
        std::printf(" %8s", "-");  // no vectorised 1D-VBL, as in the paper
      } else {
        std::printf(" %8d", wins[cn][kind]);
      }
    }
    std::printf("\n");
  }
  print_rule(64);
  return 0;
}
