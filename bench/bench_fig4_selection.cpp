// Reproduces Figure 4: the measured execution time of the (method, block,
// implementation) each model selects, normalised over the best measured
// time for that matrix — single and double precision. A value of 1.0
// means the model picked the optimum.
#include <cstdio>

#include "bench/harness.hpp"
#include "src/core/selector.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

constexpr ModelKind kModels[] = {ModelKind::kMem, ModelKind::kMemComp,
                                 ModelKind::kOverlap};

template <class V>
void run_precision(const BenchConfig& cfg, const MachineProfile& profile,
                   SweepCache& cache, const std::vector<int>& ids) {
  constexpr Precision prec = precision_of<V>;
  const auto cands = model_candidates(true);

  std::printf("\nFigure 4 (%s): real time of each model's selection / best "
              "overall time\n",
              prec == Precision::kSingle ? "single precision"
                                         : "double precision");
  print_rule(84);
  std::printf("%-18s", "matrix");
  for (ModelKind m : kModels) std::printf(" %9s", model_name(m));
  std::printf("  %-24s\n", "overlap picked");
  print_rule(84);

  std::map<ModelKind, double> sum;
  for (int id : ids) {
    if (cfg.verbose) std::fprintf(stderr, "matrix %d (%s)...\n", id,
                                  precision_name(prec));
    const Csr<V> a = build_suite_csr<V>(id, cfg.scale);
    const auto secs = sweep_matrix(a, id, cands, cfg, cache);

    double best = 1e300;
    for (const auto& [cid, t] : secs) best = std::min(best, t.min);

    std::printf("%02d.%-15s", id,
                suite_catalog()[static_cast<size_t>(id - 1)].name.c_str());
    std::string overlap_pick;
    for (ModelKind m : kModels) {
      const RankedCandidate sel = select_best(m, a, profile);
      const double real = secs.at(sel.candidate.id()).min;
      std::printf(" %9.3f", real / best);
      sum[m] += real / best;
      if (m == ModelKind::kOverlap) overlap_pick = sel.candidate.id();
    }
    std::printf("  %-24s\n", overlap_pick.c_str());
  }
  print_rule(84);
  std::printf("%-18s", "average");
  for (ModelKind m : kModels)
    std::printf(" %9.3f", sum[m] / static_cast<double>(ids.size()));
  std::printf("\n");
  print_rule(84);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;
  const MachineProfile profile = get_machine_profile(cfg);
  SweepCache cache(cfg.cache_path, cfg.no_cache);

  std::vector<int> ids = cfg.matrix_ids;
  if (ids.empty())
    for (int i = 3; i <= 30; ++i) ids.push_back(i);

  run_precision<float>(cfg, profile, cache, ids);
  run_precision<double>(cfg, profile, cache, ids);
  return 0;
}
