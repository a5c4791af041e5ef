// Reproduces Figure 3: prediction accuracy of the MEM / MEMCOMP / OVERLAP
// models. For every matrix we report the
// average predicted execution time normalised over the measured execution
// time, averaged over all candidate (method, block) combinations, for
// single and double precision; the header reports each model's average
// relative distance |t_model − t_real| / t_real, matching the figure's
// legend.
#include <cmath>
#include <cstdio>

#include "bench/harness.hpp"
#include "src/core/models.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

constexpr ModelKind kModels[] = {ModelKind::kMem, ModelKind::kMemComp,
                                 ModelKind::kOverlap};

/// Runs one precision and returns model name -> average relative distance
/// |t_model - t_real| / t_real over all (matrix, candidate) pairs — the
/// headline accuracy number, recorded in the bench trajectory.
template <class V>
std::map<std::string, double> run_precision(const BenchConfig& cfg,
                                            const MachineProfile& profile,
                                            SweepCache& cache,
                                            const std::vector<int>& ids) {
  constexpr Precision prec = precision_of<V>;
  const auto cands = model_candidates(true);

  struct Row {
    int id;
    std::map<ModelKind, double> norm;  // avg(pred/real) over candidates
  };
  std::vector<Row> rows;
  std::map<ModelKind, double> dist_sum;
  std::size_t dist_n = 0;

  for (int id : ids) {
    if (cfg.verbose) std::fprintf(stderr, "matrix %d (%s)...\n", id,
                                  precision_name(prec));
    const Csr<V> a = build_suite_csr<V>(id, cfg.scale);
    const auto secs = sweep_matrix(a, id, cands, cfg, cache);
    const auto costs = all_candidate_costs(a, cands);

    Row row;
    row.id = id;
    for (ModelKind m : kModels) {
      double sum = 0.0;
      for (const auto& cost : costs) {
        const double pred = predict(m, cost, profile, prec);
        const double real = secs.at(cost.candidate.id()).min;
        sum += pred / real;
        dist_sum[m] += std::abs(pred - real) / real;
      }
      row.norm[m] = sum / static_cast<double>(costs.size());
    }
    dist_n += costs.size();
    rows.push_back(std::move(row));
  }

  std::printf("\nFigure 3 (%s): predicted / real execution time, averaged "
              "over all (method, block) combinations\n",
              prec == Precision::kSingle ? "single precision"
                                         : "double precision");
  for (ModelKind m : kModels)
    std::printf("  abs(t_%s - t_real) ~ %.1f%%\n", model_name(m),
                100.0 * dist_sum[m] / static_cast<double>(dist_n));
  print_rule(55);
  std::printf("%-18s %10s %10s %10s\n", "matrix", "t_mem", "t_memcomp",
              "t_overlap");
  print_rule(55);
  for (const Row& row : rows) {
    std::printf("%02d.%-15s", row.id,
                suite_catalog()[static_cast<size_t>(row.id - 1)].name.c_str());
    for (ModelKind m : kModels) std::printf(" %10.3f", row.norm.at(m));
    std::printf("\n");
  }
  print_rule(55);

  std::map<std::string, double> avg_dist;
  for (ModelKind m : kModels)
    avg_dist[model_name(m)] = dist_sum[m] / static_cast<double>(dist_n);
  return avg_dist;
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
    for (int i = 3; i <= 30; ++i) ids.push_back(i);  // paper omits #1-#2

  const auto sp = run_precision<float>(cfg, profile, cache, ids);
  const auto dp = run_precision<double>(cfg, profile, cache, ids);

  Json::Object payload;
  payload["matrices"] = static_cast<double>(ids.size());
  for (const auto* pair : {&sp, &dp}) {
    Json::Object per_model;
    for (const auto& [name, dist] : *pair) per_model[name] = dist;
    payload[pair == &sp ? "avg_rel_distance_sp" : "avg_rel_distance_dp"] =
        Json(std::move(per_model));
  }
  append_bench_report(cfg, "fig3_model_accuracy", Json(std::move(payload)));
  return 0;
}
