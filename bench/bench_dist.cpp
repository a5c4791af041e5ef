// Distributed SpMV bench: row-sharded multi-process execution with
// overlapped vs naive halo exchange (docs/distribution.md) over a
// comm-heavy-to-comm-light slice of the suite. For each matrix, both
// exchange modes run over the same nnz-balanced shard plan; the bench
// records measured and t_comm-model-predicted time per mode, the
// per-rank send/recv/wait/local/halo timelines (the overlap claim is
// wait_overlap << wait_naive: comm hidden under the local-columns
// pass), and whether choose_dist_mode picked the measured winner.
//
// Results go to BENCH_dist.json (--out, checked in as the reference
// trajectory) and the BENCH_report.json trajectory. --smoke runs a
// seconds-long tiny configuration for CI.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
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

struct ModeResult {
  double measured_seconds = 0.0;   ///< wall per iteration, median batch
  double predicted_seconds = 0.0;  ///< predict_distributed
  double worst_wait_seconds = 0.0; ///< per iteration, worst rank
  std::vector<double> batch_seconds;  ///< per-iteration wall of each batch
  std::vector<dist::RankStats> rank_stats;  ///< from the median batch
};

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
                 "interleaved naive/overlap batches; min batch reported");
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

  int matches = 0, rows_done = 0;
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
    std::map<DistMode, ModeResult> res;
    for (DistMode m : {DistMode::kNaive, DistMode::kOverlap}) {
      res[m].predicted_seconds = predict_distributed(profile, costs, m);
      d.set_mode(m);
      d.run(x.data(), y.data(), 1);  // warm-up (fault page-ins, caches)
    }
    const int reps = std::max(1, static_cast<int>(cli.get_int("dist-reps")));
    for (int rep = 0; rep < reps; ++rep) {
      for (DistMode m : {DistMode::kNaive, DistMode::kOverlap}) {
        d.set_mode(m);
        Timer t;
        d.run(x.data(), y.data(), iters);
        ModeResult& mr = res[m];
        const double per_iter = t.elapsed() / iters;
        // Keep the stats of the batch that is the running median so the
        // reported per-rank timeline belongs to the reported time.
        std::vector<double> sorted = mr.batch_seconds;
        sorted.push_back(per_iter);
        std::sort(sorted.begin(), sorted.end());
        mr.batch_seconds.push_back(per_iter);
        if (per_iter == sorted[sorted.size() / 2] ||
            mr.rank_stats.empty()) {
          mr.rank_stats = d.last_stats();
          mr.worst_wait_seconds = 0.0;
          for (const dist::RankStats& s : mr.rank_stats)
            mr.worst_wait_seconds =
                std::max(mr.worst_wait_seconds, s.wait_seconds / iters);
        }
      }
    }
    for (DistMode m : {DistMode::kNaive, DistMode::kOverlap}) {
      std::vector<double> sorted = res[m].batch_seconds;
      std::sort(sorted.begin(), sorted.end());
      res[m].measured_seconds = sorted[sorted.size() / 2];
    }

    // Sanity: the result must agree with serial CSR (tolerance — the
    // column split reorders within-row sums).
    aligned_vector<double> yref(static_cast<std::size_t>(a.rows()), 0.0);
    spmv(a, x.data(), yref.data());
    for (std::size_t i = 0; i < yref.size(); ++i) {
      const double scale = std::max({std::abs(yref[i]), 1.0});
      if (std::abs(y[i] - yref[i]) > 1e-9 * scale)
        throw numerical_error("dist bench: result diverges from serial CSR");
    }

    const ModeResult& rn = res[DistMode::kNaive];
    const ModeResult& ro = res[DistMode::kOverlap];
    const DistMode predicted = choose_dist_mode(profile, costs);
    // A mode is the measured winner only when it beats the other by
    // more than the 3% noise floor (same margin as the SpMM crossover
    // checks); inside it the run is a dead heat and either prediction
    // is correct — run-to-run scheduling jitter exceeds the gap.
    constexpr double kNoiseMargin = 0.97;
    const char* measured_mode = "tie";
    if (ro.measured_seconds < kNoiseMargin * rn.measured_seconds)
      measured_mode = "overlap";
    else if (rn.measured_seconds < kNoiseMargin * ro.measured_seconds)
      measured_mode = "naive";
    const bool match =
        std::string(measured_mode) == "tie" ||
        measured_mode == std::string(dist_mode_name(predicted));
    matches += match ? 1 : 0;
    ++rows_done;
    const double speedup = rn.measured_seconds / ro.measured_seconds;
    if (speedup > best_overlap_speedup) {
      best_overlap_speedup = speedup;
      best_overlap_name = name;
    }

    std::printf("%02d.%-15s %12.3f %12.3f %8.2fx %12.3f %12.3f %9s %8s\n",
                id, name.c_str(), rn.measured_seconds * 1e3,
                ro.measured_seconds * 1e3, speedup,
                rn.predicted_seconds * 1e3, ro.predicted_seconds * 1e3,
                dist_mode_name(predicted),
                match ? (std::string(measured_mode) == "tie" ? "tie" : "yes")
                      : "NO");
    std::printf("   worst-rank wait/iter: naive %.3f ms -> overlap %.3f ms "
                "(comm hidden under local compute)\n",
                rn.worst_wait_seconds * 1e3, ro.worst_wait_seconds * 1e3);

    Json::Object row;
    row["id"] = id;
    row["name"] = name;
    row["rows"] = static_cast<std::int64_t>(a.rows());
    row["nnz"] = static_cast<std::uint64_t>(a.nnz());
    row["measured_naive_s"] = rn.measured_seconds;
    row["measured_overlap_s"] = ro.measured_seconds;
    row["predicted_naive_s"] = rn.predicted_seconds;
    row["predicted_overlap_s"] = ro.predicted_seconds;
    row["overlap_speedup"] = speedup;
    row["worst_wait_naive_s"] = rn.worst_wait_seconds;
    row["worst_wait_overlap_s"] = ro.worst_wait_seconds;
    Json::Array nb, ob;
    for (double s : rn.batch_seconds) nb.push_back(Json(s));
    for (double s : ro.batch_seconds) ob.push_back(Json(s));
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
  std::printf("summary: model picked the measured winner on %d/%d matrices; "
              "best overlap speedup %.2fx (%s)\n",
              matches, rows_done, best_overlap_speedup,
              best_overlap_name.c_str());

  out["matrices"] = Json(std::move(matrices));
  out["model_matches"] = matches;
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
