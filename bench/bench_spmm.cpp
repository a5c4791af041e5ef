// Multi-vector SpMV (SpMM) crossover bench: for each matrix, measure the
// model-selected blocked format against CSR at k ∈ {1,2,4,8} right-hand
// sides and compare the measured blocked-vs-CSR crossover k (the
// smallest batch at which the blocked format is faster) against the
// k-aware model's prediction (docs/spmm.md). Also records the GFLOP/s
// amortisation from streaming the matrix once across the batch.
//
// Results go to BENCH_spmm.json (--out) and the BENCH_report.json
// trajectory. --smoke runs a seconds-long tiny configuration for CI.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "src/core/engine.hpp"
#include "src/core/models.hpp"
#include "src/core/selector.hpp"
#include "src/core/working_set.hpp"
#include "src/util/atomic_file.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

const std::vector<int> kRhsCounts = {1, 2, 4, 8};

/// Smallest k in kRhsCounts where `blocked` is faster than `csr` beyond
/// their observed spread (compare()); 0 if never. A dead heat is not a
/// crossover, so jitter cannot report one the model rightly calls
/// "never".
int measured_crossover(const std::vector<Samples>& blocked,
                       const std::vector<Samples>& csr) {
  for (std::size_t i = 0; i < kRhsCounts.size(); ++i)
    if (compare(blocked[i], csr[i]) == Verdict::kFaster) return kRhsCounts[i];
  return 0;
}

/// Smallest k in `ks` (scanned in order) where `blocked` is predicted
/// strictly faster than `csr` at that k; 0 when the prediction never
/// crosses within `ks`.
int spmm_crossover_k(ModelKind model, const CandidateCost& blocked,
                     const CandidateCost& csr, const MachineProfile& profile,
                     Precision prec, const std::vector<int>& ks) {
  for (int k : ks) {
    const double tb = predict_spmm(model, blocked, profile, prec, k);
    const double tc = predict_spmm(model, csr, profile, prec, k);
    if (tb < tc) return k;
  }
  return 0;
}

double gflops(std::size_t nnz, int k, double seconds) {
  return 2.0 * static_cast<double>(nnz) * k / seconds / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  cli.add_option("out", "BENCH_spmm.json", "result JSON path (\"\" = off)");
  cli.add_flag("smoke", "tiny seconds-long CI run (skips the JSON output)");
  if (!cli.parse(argc, argv)) return 0;
  auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  BenchConfig cfg = *cfg_opt;

  const bool smoke = cli.get_flag("smoke");
  std::vector<int> ids = cfg.matrix_ids;
  if (smoke) {
    cfg.scale = SuiteScale::kTiny;
    cfg.measure.iterations = 2;
    cfg.measure.reps = 1;
    if (ids.empty()) ids = {20};
  } else if (ids.empty()) {
    // Dense-blocked FEM cases where the blocked-vs-CSR crossover story
    // applies (the model is calibrated for structured matrices; pass
    // --matrices 2 to see CSR hold out on the random matrix).
    ids = {16, 19, 20, 27};
  }

  const MachineProfile profile = get_machine_profile(cfg);

  std::printf("SpMM crossover: blocked vs CSR at k right-hand sides "
              "(row-major, scale=%s)\n",
              suite_scale_name(cfg.scale));
  print_rule(100);
  std::printf("%-18s %-18s %27s %27s %8s\n", "matrix", "blocked",
              "blocked ms/mult (k=1,2,4,8)", "csr ms/mult (k=1,2,4,8)",
              "x-over");
  print_rule(100);

  Json::Object out;
  out["bench"] = "spmm";
  out["scale"] = suite_scale_name(cfg.scale);
  {
    Json::Array ks;
    for (int k : kRhsCounts) ks.push_back(Json(k));
    out["ks"] = Json(std::move(ks));
  }
  Json::Array matrices;
  bool all_within_1 = true;
  double best_k8_speedup = 0.0;

  for (int id : ids) {
    const Csr<double> a = build_suite_csr<double>(id, cfg.scale);
    const std::string name =
        suite_catalog()[static_cast<std::size_t>(id - 1)].name;

    // The model's pick among the blocked (BCSR/BCSD, padded or
    // decomposed) candidates; CSR is the reference the crossover is
    // measured against (same impl class for a fair matchup).
    const auto ranked = rank_candidates(ModelKind::kOverlap, a, profile);
    Candidate blocked{};
    bool found = false;
    for (const RankedCandidate& rc : ranked) {
      const FormatKind kind = rc.candidate.kind;
      if (kind == FormatKind::kBcsr || kind == FormatKind::kBcsd ||
          kind == FormatKind::kBcsrDec || kind == FormatKind::kBcsdDec) {
        blocked = rc.candidate;
        found = true;
        break;
      }
    }
    if (!found) {
      std::printf("%02d.%-15s no blocked candidate ranked; skipped\n", id,
                  name.c_str());
      continue;
    }
    Candidate csr{};
    csr.kind = FormatKind::kCsr;
    csr.impl = blocked.impl;

    const CandidateCost blocked_cost = candidate_cost(a, blocked);
    const CandidateCost csr_cost = candidate_cost(a, csr);
    const auto blocked_engine = SpmvEngine<double>::prepare(a, blocked);
    const auto csr_engine = SpmvEngine<double>::prepare(a, csr);

    std::vector<Samples> mb, mc;
    std::vector<double> pb, pc;
    for (int k : kRhsCounts) {
      mb.push_back(blocked_engine.measure_multi(k, cfg.measure));
      mc.push_back(csr_engine.measure_multi(k, cfg.measure));
      pb.push_back(predict_spmm(ModelKind::kOverlap, blocked_cost, profile,
                                Precision::kDouble, k));
      pc.push_back(predict_spmm(ModelKind::kOverlap, csr_cost, profile,
                                Precision::kDouble, k));
    }

    // 1D-VBL alongside the 2D pick: the paper's variable-block format
    // rarely wins the single-vector ranking, but its batched kernel
    // amortises best (no padding zeros competing for the streamed
    // bandwidth), so it anchors the k8-vs-k1 amortisation headline.
    Candidate vbl{};
    vbl.kind = FormatKind::kVbl;
    vbl.impl = Impl::kSimd;
    const auto vbl_engine = SpmvEngine<double>::prepare(a, vbl);
    std::vector<Samples> mv;
    for (int k : kRhsCounts)
      mv.push_back(vbl_engine.measure_multi(k, cfg.measure));

    const int meas_k = measured_crossover(mb, mc);
    const int pred_k =
        spmm_crossover_k(ModelKind::kOverlap, blocked_cost, csr_cost,
                         profile, Precision::kDouble, kRhsCounts);
    const bool within_1 = std::abs(pred_k - meas_k) <= 1;
    all_within_1 = all_within_1 && within_1;
    const double k8_speedup =
        gflops(a.nnz(), 8, mb[3].min) / gflops(a.nnz(), 1, mb[0].min);
    const double vbl_k8_speedup =
        gflops(a.nnz(), 8, mv[3].min) / gflops(a.nnz(), 1, mv[0].min);
    best_k8_speedup =
        std::max({best_k8_speedup, k8_speedup, vbl_k8_speedup});

    std::printf("%02d.%-15s %-18s %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f "
                "%6.2f %6.2f  m=%d p=%d\n",
                id, name.c_str(), blocked.id().c_str(), mb[0].min * 1e3,
                mb[1].min * 1e3, mb[2].min * 1e3, mb[3].min * 1e3,
                mc[0].min * 1e3, mc[1].min * 1e3, mc[2].min * 1e3,
                mc[3].min * 1e3, meas_k, pred_k);
    std::printf("   GFLOP/s blocked: k=1 %.2f -> k=8 %.2f (%.2fx)\n",
                gflops(a.nnz(), 1, mb[0].min), gflops(a.nnz(), 8, mb[3].min),
                k8_speedup);
    std::printf("   GFLOP/s vbl_simd: k=1 %.2f -> k=8 %.2f (%.2fx)\n",
                gflops(a.nnz(), 1, mv[0].min), gflops(a.nnz(), 8, mv[3].min),
                vbl_k8_speedup);

    Json::Object row;
    row["id"] = id;
    row["name"] = name;
    row["blocked"] = blocked.id();
    row["csr"] = csr.id();
    Json::Array per_k;
    for (std::size_t i = 0; i < kRhsCounts.size(); ++i) {
      Json::Object e;
      e["k"] = kRhsCounts[i];
      e["measured_blocked_s"] = mb[i].min;
      e["measured_csr_s"] = mc[i].min;
      e["median_blocked_s"] = mb[i].median;
      e["median_csr_s"] = mc[i].median;
      e["iqr_blocked_s"] = mb[i].iqr;
      e["iqr_csr_s"] = mc[i].iqr;
      e["blocked_vs_csr"] = verdict_name(compare(mb[i], mc[i]));
      e["predicted_blocked_s"] = pb[i];
      e["predicted_csr_s"] = pc[i];
      e["gflops_blocked"] = gflops(a.nnz(), kRhsCounts[i], mb[i].min);
      e["measured_vbl_s"] = mv[i].min;
      e["gflops_vbl"] = gflops(a.nnz(), kRhsCounts[i], mv[i].min);
      per_k.push_back(Json(std::move(e)));
    }
    row["per_k"] = Json(std::move(per_k));
    row["measured_crossover_k"] = meas_k;
    row["predicted_crossover_k"] = pred_k;
    row["crossover_within_1"] = within_1;
    row["k8_vs_k1_gflops"] = k8_speedup;
    row["vbl_k8_vs_k1_gflops"] = vbl_k8_speedup;
    matrices.push_back(Json(std::move(row)));
  }
  print_rule(100);
  std::printf("x-over: smallest k where blocked beats CSR beyond the larger "
              "IQR (0 = never); m=measured, p=model\n");
  std::printf("summary: best k8/k1 GFLOP/s amortisation %.2fx; model "
              "crossover within +/-1 on all matrices: %s\n",
              best_k8_speedup, all_within_1 ? "yes" : "NO");

  out["matrices"] = Json(std::move(matrices));
  out["best_k8_vs_k1_gflops"] = best_k8_speedup;
  out["all_crossovers_within_1"] = all_within_1;
  const Json doc{std::move(out)};

  const std::string path = cli.get("out");
  if (!smoke && !path.empty()) {
    atomic_write_file(path, doc.dump(2) + '\n');
    std::printf("wrote %s\n", path.c_str());
  }
  append_bench_report(cfg, "spmm", doc);
  return 0;
}
