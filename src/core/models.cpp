#include "src/core/models.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/parallel/partition.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

const char* model_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMem: return "mem";
    case ModelKind::kMemComp: return "memcomp";
    case ModelKind::kOverlap: return "overlap";
  }
  return "?";
}

namespace {

double memory_time(const CandidateCost& cost, const MachineProfile& profile) {
  BSPMV_CHECK_MSG(profile.bandwidth_bps > 0,
                  "machine profile has no measured bandwidth");
  return static_cast<double>(cost.total_ws()) / profile.bandwidth_bps;
}

double compute_time(const CandidateCost& cost, const MachineProfile& profile,
                    Precision prec, bool apply_nof) {
  double t = 0.0;
  for (const CostPart& part : cost.parts) {
    const KernelProfile& kp = profile.kernel(prec, part.kernel_id);
    const double factor = apply_nof ? kp.nof : 1.0;
    t += factor * static_cast<double>(part.nb) * kp.tb;
  }
  return t;
}

}  // namespace

double predict_mem(const CandidateCost& cost, const MachineProfile& profile) {
  return memory_time(cost, profile);
}

double predict_memcomp(const CandidateCost& cost,
                       const MachineProfile& profile, Precision prec) {
  return memory_time(cost, profile) +
         compute_time(cost, profile, prec, /*apply_nof=*/false);
}

double predict_overlap(const CandidateCost& cost,
                       const MachineProfile& profile, Precision prec) {
  return memory_time(cost, profile) +
         compute_time(cost, profile, prec, /*apply_nof=*/true);
}

double predict(ModelKind model, const CandidateCost& cost,
               const MachineProfile& profile, Precision prec) {
  switch (model) {
    case ModelKind::kMem:
      return predict_mem(cost, profile);
    case ModelKind::kMemComp:
      return predict_memcomp(cost, profile, prec);
    case ModelKind::kOverlap:
      return predict_overlap(cost, profile, prec);
  }
  BSPMV_CHECK_MSG(false, "unknown model");
  return 0.0;
}

double predict_spmm(ModelKind model, const CandidateCost& cost,
                    const MachineProfile& profile, Precision prec, int k) {
  BSPMV_CHECK(k >= 1);
  BSPMV_CHECK_MSG(profile.bandwidth_bps > 0,
                  "machine profile has no measured bandwidth");
  const double kd = static_cast<double>(k);
  const double xy = static_cast<double>(cost.xy_bytes);
  const double matrix = static_cast<double>(cost.matrix_ws());

  // The matrix arrays stream once for all k vectors; x and y k times.
  const double t_mem = (matrix + kd * xy) / profile.bandwidth_bps;

  // Every block is multiplied against k right-hand sides.
  double t_comp = 0.0;
  switch (model) {
    case ModelKind::kMem:
      break;
    case ModelKind::kMemComp:
      t_comp = kd * compute_time(cost, profile, prec, /*apply_nof=*/false);
      break;
    case ModelKind::kOverlap:
      t_comp = kd * compute_time(cost, profile, prec, /*apply_nof=*/true);
      break;
  }
  return t_mem + t_comp;
}

namespace {

double predict_multicore(ModelKind model, const CandidateCost& cost,
                         const MachineProfile& profile, Precision prec,
                         int threads) {
  BSPMV_CHECK(threads >= 1);
  // Memory streams share the machine bandwidth, computations parallelise.
  const double t_mem = memory_time(cost, profile);
  switch (model) {
    case ModelKind::kMem:
      return t_mem;
    case ModelKind::kMemComp:
      return t_mem + compute_time(cost, profile, prec, false) / threads;
    case ModelKind::kOverlap:
      return t_mem + compute_time(cost, profile, prec, true) / threads;
  }
  BSPMV_CHECK_MSG(false, "unknown model");
  return 0.0;
}

}  // namespace

ParallelOverhead parallel_overhead(std::span<const std::size_t> weights,
                                   int threads, int tasks_per_thread,
                                   double seconds_per_task) {
  BSPMV_CHECK(threads >= 1 && tasks_per_thread >= 1 &&
              seconds_per_task >= 0.0);
  ParallelOverhead po;
  std::size_t total = 0;
  for (std::size_t w : weights) total += w;
  if (total == 0) return po;
  const double ideal = static_cast<double>(total) / threads;

  // Bulk: the heaviest home range of the nnz-balanced contiguous
  // partition ThreadedSpmv plans with.
  const auto homes = balanced_partition(weights, threads);
  const auto sums = part_weight_sums(weights, homes);
  std::size_t heaviest = 0;
  for (std::size_t s : sums) heaviest = std::max(heaviest, s);
  po.bulk_imbalance =
      std::max(0.0, static_cast<double>(heaviest) / ideal - 1.0);

  // Tasks: split every home range like the stealing schedule does, then
  // apply the steal-scheduling makespan bound total/P + max_task.
  std::size_t max_task = 0;
  std::size_t n_tasks = 0;
  for (std::size_t t = 0; t + 1 < homes.size(); ++t) {
    const std::span<const std::size_t> range = weights.subspan(
        static_cast<std::size_t>(homes[t]),
        static_cast<std::size_t>(homes[t + 1] - homes[t]));
    const std::size_t n =
        std::min(static_cast<std::size_t>(tasks_per_thread), range.size());
    if (n == 0) continue;
    const auto cuts = balanced_partition(range, static_cast<int>(n));
    for (std::size_t s : part_weight_sums(range, cuts)) {
      max_task = std::max(max_task, s);
      if (s > 0) ++n_tasks;
    }
  }
  po.task_imbalance = static_cast<double>(max_task) / ideal;
  po.steal_overhead_seconds = static_cast<double>(n_tasks) * seconds_per_task;
  return po;
}

double predict_parallel(ModelKind model, const CandidateCost& cost,
                        const MachineProfile& profile, Precision prec,
                        int threads, const ParallelOverhead& overhead,
                        ExecBackend backend) {
  BSPMV_CHECK(threads >= 1);
  const double base = predict_multicore(model, cost, profile, prec, threads);
  // The imbalance fraction applies to one thread's ideal share of the
  // whole single-core time (memory + compute): the barrier (bulk) or the
  // final unstolen task (tasks) extends the run by the straggler excess.
  const double share = predict(model, cost, profile, prec) / threads;
  if (backend == ExecBackend::kTasks)
    return base + overhead.task_imbalance * share +
           overhead.steal_overhead_seconds;
  return base + overhead.bulk_imbalance * share;
}

// ----------------------------------------------------------------------
// Distributed extension
// ----------------------------------------------------------------------

const char* dist_mode_name(DistMode m) {
  return m == DistMode::kNaive ? "naive" : "overlap";
}

DistMode parse_dist_mode(const std::string& s) {
  if (s == "naive") return DistMode::kNaive;
  if (s == "overlap") return DistMode::kOverlap;
  throw invalid_argument_error("unknown dist mode '" + s +
                               "' (expected 'naive' or 'overlap')");
}

double t_comm(const MachineProfile& profile, std::size_t bytes, int msgs) {
  if (profile.comm_beta_bps <= 0.0)
    throw invalid_argument_error(
        "machine profile carries no comm parameters (comm_beta_bps == 0); "
        "profile α/β first (profile_comm)");
  return profile.comm_alpha_seconds * msgs +
         static_cast<double>(bytes) / profile.comm_beta_bps;
}

namespace {

/// Cycle-stealing penalty on the wire-streaming (memcpy) part of the
/// exchange when it cannot run on a spare core: interleaving the copy
/// with the local-columns pass evicts the compute working set, so each
/// copied byte effectively crosses the memory system twice.
constexpr double kOversubscribedCopyPenalty = 2.0;

int resolve_cores(int cores) {
  if (cores > 0) return cores;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

double predict_distributed(const MachineProfile& profile,
                           std::span<const DistRankCost> ranks,
                           DistMode mode, int cores) {
  // The ranks' memory streams share the node's bandwidth, like the
  // threads of predict_parallel: each active rank sees BW / active.
  int active = 0;
  for (const auto& r : ranks)
    if (r.local_ws_bytes + r.halo_ws_bytes > 0) ++active;
  if (active == 0) return 0.0;
  const double bw = profile.bandwidth_bps / active;
  // Spare cores beyond the compute ranks are what lets the exchange
  // threads actually stream bytes while the local pass runs; without
  // them the copy steals compute cycles instead (see models.hpp).
  const bool spare_cores = resolve_cores(cores) > active;

  double worst = 0.0;
  for (const auto& r : ranks) {
    const double t_local = static_cast<double>(r.local_ws_bytes) / bw;
    const double t_halo = static_cast<double>(r.halo_ws_bytes) / bw;
    const int msgs = r.msgs_sent + r.msgs_recv;
    double t = t_local + t_halo;
    if (msgs > 0) {
      if (profile.comm_beta_bps <= 0.0)  // same guard as t_comm
        (void)t_comm(profile, 0, 0);
      const double t_block = profile.comm_alpha_seconds * msgs;
      const double t_stream =
          static_cast<double>(r.bytes_sent + r.bytes_recv) /
          profile.comm_beta_bps;
      if (mode == DistMode::kNaive) {
        // Exchange completes before any compute starts: the rank pays
        // the full wire cost serially, with no interference.
        t = t_block + t_stream + t_local + t_halo;
      } else if (spare_cores) {
        // The exchange threads run on their own cores: the whole wire
        // cost hides under the local-columns pass.
        t = std::max(t_block + t_stream, t_local) + t_halo;
      } else {
        // Oversubscribed: blocking time still hides (the CPU computes
        // while waiting on peers), but the copy interleaves with the
        // compute at a thrash penalty.
        t = std::max(t_block, t_local) +
            kOversubscribedCopyPenalty * t_stream + t_halo;
      }
    }
    worst = std::max(worst, t);
  }
  return worst;
}

DistMode choose_dist_mode(const MachineProfile& profile,
                          std::span<const DistRankCost> ranks, int cores) {
  const double naive =
      predict_distributed(profile, ranks, DistMode::kNaive, cores);
  const double overlap =
      predict_distributed(profile, ranks, DistMode::kOverlap, cores);
  // Strictly-faster wins; a dead heat keeps the serialised exchange. No
  // noise margin here: the split comm model already separates the modes
  // by physically real terms (hidden α·msgs vs the unhidden copy), so
  // the sign of a small predicted gap is informative, not jitter.
  return overlap < naive ? DistMode::kOverlap : DistMode::kNaive;
}

namespace {
/// Fixed latency of a checkpoint write, measured once and deliberately
/// coarse: it only matters relative to MTBF and t_iter, which differ
/// from it by orders of magnitude.
constexpr double kFsyncSeconds = 2e-3;  ///< atomic_write_file fsync+rename
}  // namespace

double dist_checkpoint_seconds(const MachineProfile& profile,
                               std::size_t x_bytes) {
  if (profile.bandwidth_bps <= 0.0)
    throw invalid_argument_error(
        "checkpoint model needs a profiled stream bandwidth");
  // Serialize, CRC, and write-through: ~3 passes over the payload.
  return kFsyncSeconds +
         3.0 * static_cast<double>(x_bytes) / profile.bandwidth_bps;
}

int dist_checkpoint_interval(double t_iter_seconds, double ckpt_seconds,
                             double mtbf_seconds) {
  if (t_iter_seconds <= 0.0 || ckpt_seconds <= 0.0 || mtbf_seconds <= 0.0)
    return 0;
  // Young's first-order optimum: checkpoint every sqrt(2·C·M) seconds.
  const double t_opt = std::sqrt(2.0 * ckpt_seconds * mtbf_seconds);
  const int iters = static_cast<int>(std::lround(t_opt / t_iter_seconds));
  return std::max(1, iters);
}

}  // namespace bspmv
