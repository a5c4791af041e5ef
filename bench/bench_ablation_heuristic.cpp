// Ablation: the OSKI/SPARSITY fill heuristic ([16], [3]) vs the paper's
// models as *selectors*. §IV argues the heuristic "is constrained to the
// BCSR format only" — this bench quantifies what that costs: for each
// suite matrix we report the measured time of each selector's pick,
// normalised over the best measured candidate (dp). Reuses the shared
// sweep cache.
#include <cstdio>

#include "bench/harness.hpp"
#include "src/core/heuristic.hpp"
#include "src/core/selector.hpp"

using namespace bspmv;
using namespace bspmv::bench;

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  cli.add_option("sample", "0.05", "fill-estimate sampling fraction");
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;
  const MachineProfile profile = get_machine_profile(cfg);
  SweepCache cache(cfg.cache_path, cfg.no_cache);
  const double sample = cli.get_double("sample");

  std::vector<int> ids = cfg.matrix_ids;
  if (ids.empty())
    for (int i = 3; i <= 30; ++i) ids.push_back(i);

  std::printf("Heuristic-vs-models selection ablation (double precision, "
              "scale=%s, sample=%.2f)\n",
              suite_scale_name(cfg.scale), sample);
  print_rule(96);
  std::printf("%-18s %10s %10s %10s  %-22s %-20s\n", "matrix", "heuristic",
              "overlap", "memcomp", "heuristic picked", "overlap picked");
  print_rule(96);

  const auto cands = model_candidates(true);
  double sum_h = 0.0, sum_o = 0.0, sum_m = 0.0;
  for (int id : ids) {
    const Csr<double> a = build_suite_csr<double>(id, cfg.scale);
    const auto secs = sweep_matrix(a, id, cands, cfg, cache);
    double best = 1e300;
    for (const auto& [cid, t] : secs) best = std::min(best, t.min);

    const HeuristicSelection h = select_bcsr_heuristic(a, profile, sample);
    const RankedCandidate o = select_best(ModelKind::kOverlap, a, profile);
    const RankedCandidate m = select_best(ModelKind::kMemComp, a, profile);

    const double rh = secs.at(h.candidate.id()).min / best;
    const double ro = secs.at(o.candidate.id()).min / best;
    const double rm = secs.at(m.candidate.id()).min / best;
    sum_h += rh;
    sum_o += ro;
    sum_m += rm;
    std::printf("%02d.%-15s %10.3f %10.3f %10.3f  %-22s %-20s\n", id,
                suite_catalog()[static_cast<size_t>(id - 1)].name.c_str(), rh,
                ro, rm, h.candidate.id().c_str(), o.candidate.id().c_str());
  }
  print_rule(96);
  const auto n = static_cast<double>(ids.size());
  std::printf("%-18s %10.3f %10.3f %10.3f   (real time of selection / best "
              "measured)\n",
              "average", sum_h / n, sum_o / n, sum_m / n);
  print_rule(96);
  std::printf("expected shape: the heuristic is competitive on BCSR-friendly "
              "matrices but cannot pick BCSD/decomposed/CSR-winning cases\n");
  return 0;
}
