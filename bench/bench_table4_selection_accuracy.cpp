// Reproduces Table IV: per model and precision, the number of matrices
// where the model selected the overall-best (method, block) combination,
// and the average performance distance of its selection from the best.
#include <cstdio>

#include "bench/harness.hpp"
#include "src/core/selector.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

constexpr ModelKind kModels[] = {ModelKind::kMem, ModelKind::kMemComp,
                                 ModelKind::kOverlap};

struct Score {
  int correct = 0;
  double off_sum = 0.0;
};

template <class V>
std::map<ModelKind, Score> run_precision(const BenchConfig& cfg,
                                         const MachineProfile& profile,
                                         SweepCache& cache,
                                         const std::vector<int>& ids) {
  constexpr Precision prec = precision_of<V>;
  const auto cands = model_candidates(true);
  std::map<ModelKind, Score> scores;

  for (int id : ids) {
    if (cfg.verbose) std::fprintf(stderr, "matrix %d (%s)...\n", id,
                                  precision_name(prec));
    const Csr<V> a = build_suite_csr<V>(id, cfg.scale);
    const auto secs = sweep_matrix(a, id, cands, cfg, cache);

    const Samples* best = nullptr;
    for (const auto& [cid, t] : secs)
      if (!best || t.min < best->min) best = &t;

    for (ModelKind m : kModels) {
      const RankedCandidate sel = select_best(m, a, profile);
      const Samples& real = secs.at(sel.candidate.id());
      Score& s = scores[m];
      // A selection counts as correct when it achieves the best measured
      // performance, mirroring "optimal predictions" in the paper's
      // Table IV: no slower than the best beyond their observed spread.
      if (compare(real, *best) != Verdict::kSlower) ++s.correct;
      s.off_sum += real.min / best->min - 1.0;
    }
  }
  return scores;
}

void print_block(const char* title, const std::map<ModelKind, Score>& sp,
                 const std::map<ModelKind, Score>& dp, std::size_t n) {
  std::printf("%s\n", title);
  print_rule(78);
  std::printf("%-10s | %14s %16s | %14s %16s\n", "Model", "#correct (sp)",
              "off best (sp)", "#correct (dp)", "off best (dp)");
  print_rule(78);
  for (ModelKind m : kModels) {
    std::printf("%-10s | %9d/%-4zu %15.1f%% | %9d/%-4zu %15.1f%%\n",
                model_name(m), sp.at(m).correct, n,
                100.0 * sp.at(m).off_sum / static_cast<double>(n),
                dp.at(m).correct, n,
                100.0 * dp.at(m).off_sum / static_cast<double>(n));
  }
  print_rule(78);
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

  const auto sp = run_precision<float>(cfg, profile, cache, ids);
  const auto dp = run_precision<double>(cfg, profile, cache, ids);
  print_block("Table IV: optimal selections per model and distance from the "
              "best achievable performance",
              sp, dp, ids.size());

  Json::Object payload;
  payload["matrices"] = static_cast<double>(ids.size());
  for (const auto* pair : {&sp, &dp}) {
    Json::Object per_model;
    for (const auto& [m, s] : *pair) {
      Json::Object o;
      o["correct"] = s.correct;
      o["avg_off_best"] = s.off_sum / static_cast<double>(ids.size());
      per_model[model_name(m)] = Json(std::move(o));
    }
    payload[pair == &sp ? "selection_sp" : "selection_dp"] =
        Json(std::move(per_model));
  }
  append_bench_report(cfg, "table4_selection_accuracy",
                      Json(std::move(payload)));
  return 0;
}
