// Distributed SpMV bench: row-sharded multi-process execution with
// overlapped vs naive halo exchange (docs/distribution.md) over a
// comm-heavy-to-comm-light slice of the suite. For each matrix, both
// exchange modes run over the same nnz-balanced shard plan; the bench
// records measured and t_comm-model-predicted time per mode, the
// per-rank send/recv/wait/local/halo timelines (the overlap claim is
// wait_overlap << wait_naive: comm hidden under the local-columns
// pass), and whether choose_dist_mode picked the measured winner. A
// matrix whose modes are indistinguishable (compare()) counts as
// neither a match nor a miss.
//
// Results go to BENCH_dist.json (--out, checked in as the reference
// trajectory) and the BENCH_report.json trajectory. --smoke runs a
// seconds-long tiny configuration for CI.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "src/core/models.hpp"
#include "src/dist/driver.hpp"
#include "src/kernels/spmv.hpp"
#include "src/profile/comm_bench.hpp"
#include "src/util/atomic_file.hpp"
#include "src/util/timing.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

/// Worst rank's wait per iteration in one run's timeline.
double worst_wait(const std::vector<dist::RankStats>& stats, int iterations) {
  double w = 0.0;
  for (const dist::RankStats& s : stats)
    w = std::max(w, s.wait_seconds / iterations);
  return w;
}

Json::Object rank_stats_json(const dist::ShardPlan& plan,
                             const std::vector<dist::RankStats>& stats,
                             int iterations) {
  Json::Object o;
  Json::Array arr;
  for (std::size_t r = 0; r < stats.size(); ++r) {
    const dist::RankShard& sh = plan.shards[r];
    const dist::RankStats& s = stats[r];
    Json::Object js;
    js["rank"] = static_cast<int>(r);
    js["rows"] = static_cast<std::int64_t>(sh.rows());
    js["nnz"] = static_cast<std::uint64_t>(sh.nnz);
    js["halo_cols"] = static_cast<std::uint64_t>(sh.halo_count());
    js["send_seconds"] = s.send_seconds;
    js["recv_seconds"] = s.recv_seconds;
    js["wait_seconds"] = s.wait_seconds;
    js["local_seconds"] = s.local_seconds;
    js["halo_seconds"] = s.halo_seconds;
    js["total_seconds"] = s.total_seconds;
    js["bytes_sent"] = static_cast<std::uint64_t>(s.bytes_sent);
    js["bytes_recv"] = static_cast<std::uint64_t>(s.bytes_recv);
    arr.push_back(Json(std::move(js)));
  }
  o["iterations"] = iterations;
  o["ranks"] = Json(std::move(arr));
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  cli.add_option("out", "BENCH_dist.json", "result JSON path (\"\" = off)");
  cli.add_option("ranks", "4", "rank processes (2..16)");
  cli.add_option("dist-threads", "1", "threads per rank's local pass");
  cli.add_option("dist-iters", "40", "iterations per timed batch");
  cli.add_option("dist-reps", "5",
                 "interleaved naive/overlap batches; median batch reported");
  cli.add_flag("smoke", "tiny seconds-long CI run (skips the JSON output)");
  if (!cli.parse(argc, argv)) return 0;
  auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  BenchConfig cfg = *cfg_opt;

  const bool smoke = cli.get_flag("smoke");
  const int ranks = static_cast<int>(cli.get_int("ranks"));
  int iters = static_cast<int>(cli.get_int("dist-iters"));
  std::vector<int> ids = cfg.matrix_ids;
  if (smoke) {
    cfg.scale = SuiteScale::kTiny;
    iters = 3;
    if (ids.empty()) ids = {20};
  } else if (ids.empty()) {
    // Latency-dominated exchanges (parabolic_fem, Hamrle3: thin halos)
    // through bandwidth-dominated ones (G3_circuit, kkt_power, thermal2:
    // wide halos) — the overlap-vs-naive split of arXiv 1106.5908 needs
    // both regimes to be interesting.
    ids = {4, 7, 8, 17, 28};
  }

  // The t_comm parameters ride in the shared machine profile; profile
  // them here (full, not quick) if this machine has none yet, and
  // persist so every later bench/report reuses the same α/β.
  MachineProfile profile = get_machine_profile(cfg);
  if (profile.comm_beta_bps <= 0.0) {
    std::printf("profiling wire comm alpha/beta...\n");
    const CommProfile c = profile_comm(/*quick=*/smoke);
    profile.comm_alpha_seconds = c.alpha_seconds;
    profile.comm_beta_bps = c.beta_bps;
    profile.save(cfg.profile_path);
  }

  std::printf("distributed SpMV: %d ranks, overlap vs naive halo exchange "
              "(scale=%s, %d iters, alpha %.2f us, beta %.2f GiB/s)\n",
              ranks, suite_scale_name(cfg.scale), iters,
              profile.comm_alpha_seconds * 1e6,
              profile.comm_beta_bps / (1u << 30));
  print_rule(102);
  std::printf("%-18s %12s %12s %9s %12s %12s %9s %8s\n", "matrix",
              "naive ms", "overlap ms", "speedup", "pred naive", "pred ovl",
              "model", "match");
  print_rule(102);

  Json::Object out;
  out["bench"] = "dist";
  out["scale"] = suite_scale_name(cfg.scale);
  out["ranks"] = ranks;
  out["iterations"] = iters;
  out["comm_alpha_seconds"] = profile.comm_alpha_seconds;
  out["comm_beta_bps"] = profile.comm_beta_bps;
  Json::Array matrices;

  int matches = 0, misses = 0, indistinguishable = 0, rows_done = 0;
  double best_overlap_speedup = 0.0;
  std::string best_overlap_name;

  for (int id : ids) {
    const Csr<double> a = build_suite_csr<double>(id, cfg.scale);
    const std::string name =
        suite_catalog()[static_cast<std::size_t>(id - 1)].name;

    dist::DistOptions dopt;
    dopt.ranks = ranks;
    dopt.threads_per_rank = static_cast<int>(cli.get_int("dist-threads"));
    dist::DistSpmv d(a, dopt);
    const std::vector<DistRankCost> costs = d.rank_costs();

    aligned_vector<double> x(static_cast<std::size_t>(a.cols()));
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = 0.5 + 0.001 * static_cast<double>(i % 997);
    aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

    // Interleave the modes batch by batch and report each mode's
    // *median* batch: interleaving cancels slow machine-wide drift, and
    // the median keeps the typical scheduling conditions both modes
    // actually run under. (Min-of-batches — the aggregator the
    // candidate harness uses — is wrong here: each mode's luckiest
    // batch is the interference-free schedule, which costs the same
    // total CPU in both modes and erases the very contention the two
    // exchange strategies differ on.)
    const int reps = std::max(1, static_cast<int>(cli.get_int("dist-reps")));
    const auto timings =
        dist::time_modes(d, x.data(), y.data(), iters, reps);
    const auto& [rn, ro] = timings;

    // Sanity: the result must agree with serial CSR (tolerance — the
    // column split reorders within-row sums).
    aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
    spmv(a, x.data(), yref.data());
    for (std::size_t i = 0; i < yref.size(); ++i) {
      const double scale = std::max({std::abs(yref[i]), 1.0});
      if (std::abs(y[i] - yref[i]) > 1e-9 * scale)
        throw numerical_error("dist bench: result diverges from serial CSR");
    }

    const DistMode predicted = choose_dist_mode(profile, costs);
    // A mode is the measured winner only when its median beats the
    // other's by more than the larger IQR; otherwise the two are
    // indistinguishable, which no prediction matches.
    const std::string measured_mode = dist::measured_mode(timings);
    const bool tie = measured_mode == verdict_name(Verdict::kIndistinguishable);
    const bool match = measured_mode == dist_mode_name(predicted);
    if (tie)
      ++indistinguishable;
    else if (match)
      ++matches;
    else
      ++misses;
    ++rows_done;
    const double pred_naive = predict_distributed(profile, costs,
                                                  DistMode::kNaive);
    const double pred_overlap = predict_distributed(profile, costs,
                                                    DistMode::kOverlap);
    const double wait_naive = worst_wait(rn.rank_stats, iters);
    const double wait_overlap = worst_wait(ro.rank_stats, iters);
    const double speedup = rn.samples.median / ro.samples.median;
    if (speedup > best_overlap_speedup) {
      best_overlap_speedup = speedup;
      best_overlap_name = name;
    }

    std::printf("%02d.%-15s %12.3f %12.3f %8.2fx %12.3f %12.3f %9s %8s\n",
                id, name.c_str(), rn.samples.median * 1e3,
                ro.samples.median * 1e3, speedup, pred_naive * 1e3,
                pred_overlap * 1e3, dist_mode_name(predicted),
                tie ? "indist" : match ? "yes" : "NO");
    std::printf("   IQR naive %.3f ms, overlap %.3f ms; worst-rank wait/iter: "
                "naive %.3f ms -> overlap %.3f ms\n",
                rn.samples.iqr * 1e3, ro.samples.iqr * 1e3, wait_naive * 1e3,
                wait_overlap * 1e3);

    Json::Object row;
    row["id"] = id;
    row["name"] = name;
    row["rows"] = static_cast<std::int64_t>(a.rows());
    row["nnz"] = static_cast<std::uint64_t>(a.nnz());
    row["measured_naive_s"] = rn.samples.median;
    row["measured_overlap_s"] = ro.samples.median;
    row["iqr_naive_s"] = rn.samples.iqr;
    row["iqr_overlap_s"] = ro.samples.iqr;
    row["predicted_naive_s"] = pred_naive;
    row["predicted_overlap_s"] = pred_overlap;
    row["overlap_speedup"] = speedup;
    row["worst_wait_naive_s"] = wait_naive;
    row["worst_wait_overlap_s"] = wait_overlap;
    Json::Array nb, ob;
    for (double s : rn.samples.seconds) nb.push_back(Json(s));
    for (double s : ro.samples.seconds) ob.push_back(Json(s));
    row["naive_batches_s"] = Json(std::move(nb));
    row["overlap_batches_s"] = Json(std::move(ob));
    row["predicted_mode"] = dist_mode_name(predicted);
    row["measured_mode"] = measured_mode;
    row["model_match"] = match;
    row["naive"] = Json(rank_stats_json(d.plan(), rn.rank_stats, iters));
    row["overlap"] = Json(rank_stats_json(d.plan(), ro.rank_stats, iters));
    matrices.push_back(Json(std::move(row)));
  }
  print_rule(102);
  std::printf("summary: of %d matrices, the model picked the measured winner "
              "on %d, missed on %d, and the modes were indistinguishable on "
              "%d; best overlap speedup %.2fx (%s)\n",
              rows_done, matches, misses, indistinguishable,
              best_overlap_speedup, best_overlap_name.c_str());

  out["matrices"] = Json(std::move(matrices));
  out["model_matches"] = matches;
  out["model_misses"] = misses;
  out["indistinguishable"] = indistinguishable;
  out["matrices_run"] = rows_done;
  out["best_overlap_speedup"] = best_overlap_speedup;
  out["best_overlap_matrix"] = best_overlap_name;
  const Json doc{std::move(out)};

  const std::string path = cli.get("out");
  if (!smoke && !path.empty()) {
    atomic_write_file(path, doc.dump(2) + '\n');
    std::printf("wrote %s\n", path.c_str());
  }
  append_bench_report(cfg, "dist", doc);
  return 0;
}
