// The paper's performance models (§IV) plus the future-work extensions.
//
//   MEM      (eq. 1): t = ws / BW                       [Gropp et al.]
//   MEMCOMP  (eq. 2): t = Σ_i ( ws_i/BW + nb_i·t_b_i )
//   OVERLAP  (eq. 3): t = Σ_i ( ws_i/BW + nof_i·nb_i·t_b_i )
//
// Extension (§VI future work, built here):
//   predict_parallel: shared-bandwidth multicore adaptation plus the
//   threaded schedule's imbalance and scheduling costs.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "src/core/working_set.hpp"
#include "src/parallel/backend.hpp"
#include "src/profile/machine_profile.hpp"

namespace bspmv {

enum class ModelKind { kMem, kMemComp, kOverlap };

const char* model_name(ModelKind kind);

/// Predicted execution time (seconds per SpMV) of `cost` under `model`.
double predict(ModelKind model, const CandidateCost& cost,
               const MachineProfile& profile, Precision prec);

/// Convenience wrappers for the three paper models.
double predict_mem(const CandidateCost& cost, const MachineProfile& profile);
double predict_memcomp(const CandidateCost& cost,
                       const MachineProfile& profile, Precision prec);
double predict_overlap(const CandidateCost& cost,
                       const MachineProfile& profile, Precision prec);

/// Scheduling-overhead inputs of predict_parallel, derived purely from
/// the §V-A partition weights of one pass (stored values incl. padding
/// per granule) — no timing required.
struct ParallelOverhead {
  /// Static-partition load imbalance of the kBulk schedule: heaviest
  /// thread share over the ideal share, minus one (0 = perfectly
  /// balanced; the batch barrier makes every SpMV pay this fraction).
  double bulk_imbalance = 0.0;
  /// Straggler bound of the kTasks (stealing) schedule: with every home
  /// range split into tasks_per_thread weight-balanced tasks, the
  /// classic steal-scheduling makespan bound is total/threads +
  /// max_task, so the excess fraction is max_task/(total/threads). Much
  /// smaller than bulk_imbalance on skewed matrices, slightly above zero
  /// on balanced ones.
  double task_imbalance = 0.0;
  /// Per-SpMV scheduling cost of the stealing schedule (cursor claims
  /// and steal sweeps), linear in the task count.
  double steal_overhead_seconds = 0.0;
};

/// Compute the overhead terms for one pass's partition weights, split
/// the way ThreadedSpmv's stealing schedule splits them: each thread's
/// home range into up to tasks_per_thread nnz-balanced tasks.
/// `seconds_per_task` is the amortised per-task scheduling cost (cursor
/// claims, steal sweeps, dispatch), measured with bench_kernels_micro
/// (docs/models.md).
ParallelOverhead parallel_overhead(std::span<const std::size_t> weights,
                                   int threads,
                                   int tasks_per_thread = kTasksPerThread,
                                   double seconds_per_task = 1.6e-8);

/// Multicore prediction including the execution backend's scheduling
/// costs. The base is the shared-bandwidth multicore model: memory
/// streams share the machine's bandwidth (the memory term of the
/// single-core model, unchanged) while the computational term divides
/// by `threads`. On top come the backend's imbalance share of the
/// per-thread work and, for the task backend, the steal overhead; with a
/// zero ParallelOverhead the prediction is that base alone.
double predict_parallel(ModelKind model, const CandidateCost& cost,
                        const MachineProfile& profile, Precision prec,
                        int threads, const ParallelOverhead& overhead,
                        ExecBackend backend);

/// Multi-vector (SpMM) extension of eq. (1)–(3): predicted seconds for
/// ONE multiply of all k row-major right-hand sides (divide by k for the
/// effective per-vector time). The memory term splits cost into matrix
/// traffic (streamed once for all k vectors) and x/y traffic (×k), while
/// every compute term scales ×k. k == 1 equals predict(). Full
/// derivation in docs/spmm.md.
double predict_spmm(ModelKind model, const CandidateCost& cost,
                    const MachineProfile& profile, Precision prec, int k);

// ----------------------------------------------------------------------
// Distributed extension: t_comm = α·msgs + bytes/β
// ----------------------------------------------------------------------
//
// Row-sharded multi-process SpMV (src/dist/, docs/distribution.md)
// exchanges the x-vector halo every iteration. The exchange is either
// serialised before the compute (naive, the "vector mode" of arXiv
// 1106.5908) or run concurrently with the local-columns pass (overlap).
// The models gain a latency/bandwidth communication term and a chooser
// that predicts, per shard plan, which mode wins.

/// Halo-exchange strategy of the distributed runtime.
enum class DistMode { kNaive, kOverlap };

const char* dist_mode_name(DistMode m);
/// Parse "naive" / "overlap"; throws invalid_argument_error otherwise.
DistMode parse_dist_mode(const std::string& s);

/// One rank's model inputs, derived purely from the shard plan
/// (ShardPlan::rank_costs) — no timing required.
struct DistRankCost {
  std::size_t local_ws_bytes = 0;  ///< local-columns submatrix + x/y slices
  std::size_t halo_ws_bytes = 0;   ///< halo-columns submatrix + halo x
  std::size_t bytes_sent = 0;      ///< halo payload bytes out, per iteration
  std::size_t bytes_recv = 0;      ///< halo payload bytes in, per iteration
  int msgs_sent = 0;               ///< halo frames out, per iteration
  int msgs_recv = 0;               ///< halo frames in, per iteration
};

/// Latency/bandwidth cost of moving `bytes` in `msgs` frames between two
/// ranks on this machine: α·msgs + bytes/β, with α/β profiled over the
/// actual socketpair wire path (MachineProfile::comm_*). Throws
/// invalid_argument_error when the profile carries no comm parameters.
double t_comm(const MachineProfile& profile, std::size_t bytes, int msgs);

/// Predicted seconds per distributed SpMV iteration under `mode`: every
/// rank streams its shard at the shared-bandwidth rate (BW divided over
/// the ranks with work, as in predict_parallel), pays its halo traffic,
/// then runs the halo-columns pass; the iteration ends when the slowest
/// rank does.
///
/// The comm term t_comm = α·msgs + bytes/β splits into two physically
/// different costs, and overlap treats them differently:
///   - α·msgs is *blocking* time (waiting for peers / the kernel): the
///     CPU is free, so overlap always hides it under the local pass;
///   - bytes/β is *streaming* time (the socketpair memcpy): it needs CPU
///     cycles, so it only hides when spare cores exist beyond the ranks
///     (`cores > active`). On an oversubscribed node the copy instead
///     interleaves with the compute, stealing its cycles and evicting
///     its working set — overlap then pays the copy at a thrash penalty
///     while naive pays it once, serially, with no interference.
/// `cores` is the node's hardware concurrency; 0 means "ask the OS".
double predict_distributed(const MachineProfile& profile,
                           std::span<const DistRankCost> ranks,
                           DistMode mode, int cores = 0);

/// The selector's overlap-vs-naive choice for a shard plan: strictly
/// faster predicted overlap wins, otherwise naive (its serialised
/// exchange is the simpler machinery). The split comm model makes the
/// sign meaningful even for close calls — latency-dominated exchanges
/// favour overlap by ~α·msgs, bandwidth-dominated ones favour naive by
/// the unhidden copy penalty.
DistMode choose_dist_mode(const MachineProfile& profile,
                          std::span<const DistRankCost> ranks,
                          int cores = 0);

// ----------------------------------------------------------------------
// Recovery extension: expected cost of surviving rank failure
// ----------------------------------------------------------------------
//
// The supervised distributed driver (docs/distribution.md "Failure modes
// and recovery") checkpoints the x-vector every `interval` iterations
// and, on a rank failure, respawns the rank, re-ships its shard and
// retries from the last round boundary. These models price the
// checkpoint so its cadence is a Young/Daly choice rather than a guess.

/// Seconds to write one checkpoint: an fsync'd atomic-rename file of
/// `x_bytes` (the x snapshot plus its CRC trailer), costed as a fixed
/// fsync latency plus ~3 memory/disk passes over the payload at the
/// profiled stream bandwidth. Throws invalid_argument_error when the
/// profile carries no bandwidth.
double dist_checkpoint_seconds(const MachineProfile& profile,
                               std::size_t x_bytes);

/// Young's optimal checkpoint interval, in iterations: round(
/// sqrt(2 · C · MTBF) / t_iter ), clamped to >= 1. `t_iter` is the
/// predicted per-iteration time (predict_distributed), `ckpt_seconds`
/// the per-checkpoint cost, `mtbf_seconds` the assumed mean time
/// between rank failures. Returns 0 when any input is non-positive —
/// "no model choice"; the caller keeps its default cadence.
int dist_checkpoint_interval(double t_iter_seconds, double ckpt_seconds,
                             double mtbf_seconds);

}  // namespace bspmv
