#!/usr/bin/env bash
# Build under ThreadSanitizer and run every threaded path's tests:
#
#   - test_run_control: RunControl/Watchdog (deadline enforcement,
#     first-abort-wins, heartbeat stall detection), and the Measurement
#     cases: the timing primitive polls, between batches, a RunControl
#     that a Watchdog thread writes;
#   - test_schedule: the threaded driver's TaskPool — packed-cursor
#     owner/thief races, epoch dispatch and parking, stealing, the
#     busy-pool inline fallback, and TaskPool.SharedPoolInForkedChildRunsInline,
#     whose forked child gets a threadless shared pool (it starts no
#     thread, which TSan allows) — and the stealing parity/stress cases
#     (docs/tasking.md);
#   - test_parallel, test_engine, test_partition_edges, test_spmm: the
#     threaded parity suites (every parallel format × schedule × thread
#     count, run_multi at k = 1..16) and the engine's threaded plans;
#   - test_coo_csr, CsrWalk cases: the CSR kernels' chunked walk through
#     both schedules at 1/2/3/4/7 threads, with task ranges that cut
#     chunks whose walk is flat, per row, or flat only in part;
#   - test_decomposed, DecFused cases: the fused decomposed kernels
#     through both schedules at 1/2/4/7 threads (1/2/3/4/7 where task
#     ranges must cut the remainder chunks), and Threads/SpmmParity's
#     decomposed row-major case over the same chunk edges;
#   - test_dist, DistComm and HaloDecFormat cases: the halo exchange's
#     per-peer send/recv threads over real socketpairs, in-process
#     (docs/distribution.md), and HaloDecFormat's edge-split case: a
#     rank's local columns through a ThreadedSpmv at 1/2/4 threads under
#     both schedules, then its serial halo product, on empty, whole and
#     interior owned ranges. The fork-based DistSpmv cases stay out (TSan's
#     runtime does not survive multi-threaded fork() children);
#   - test_working_set, CandidateCost cases: the ranking's structural
#     scans, one fused scan per band height and row chunk on the shared
#     TaskPool with caller-owned per-slot scratch — parity with
#     single-candidate costing (chunk-edge row counts included), four
#     concurrent rankings, and a ranking from inside a running pool task
#     (the busy-pool inline path);
#   - test_stats, StatsScratch cases: the scratch those scans reuse;
#     Conversion and Tiny/ConversionOnSuite cases: every blocked
#     conversion's size and fill passes as row-chunk tasks on the shared
#     pool, array for array against the same conversion run inline in a
#     busy pool;
#   - test_dist_recovery, fork-free supervisor paths only: the
#     epoch-consistency rejection across two in-process exchange
#     endpoints (DistCommEpoch — a real two-thread wire race), plus the
#     single-threaded checkpoint codec/file cases and the checkpoint cost
#     models. The respawn/reshard/single-node ladder itself forks and is
#     covered by the functional suite and the ASan dist chaos soak
#     (scripts/run_dist_soak.sh) instead;
#   - test_serve and test_engine_cache, Server, AdmissionQueue and
#     EngineCache cases: a live serving daemon in process — acceptor,
#     detached connection readers, request workers, the same-matrix
#     batcher's leader hand-off, per-round Watchdogs, threaded engines
#     sharing one task pool (a busy pool runs the request inline) — and
#     the admission queue and engine cache under concurrent callers.
#     None of these cases forks.
#
# Usage: scripts/run_tsan.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build-tsan}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBSPMV_TSAN=ON \
  -DBSPMV_BUILD_BENCH=OFF \
  -DBSPMV_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_run_control test_schedule test_parallel test_engine \
           test_partition_edges test_spmm test_coo_csr test_decomposed \
           test_dist test_dist_recovery test_working_set test_stats \
           test_serve test_engine_cache

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

ctest --test-dir "$build_dir" --output-on-failure --timeout 600 \
  -j "$(nproc)" \
  -R '^(RunControl|Watchdog|AtomicFile|Measurement|Numerics|Backend|WorkQueue|Topology|TaskPool|TaskStress|TaskSchedule|TaskGraph|Threads/TaskGraphParity|Partition|PartitionEdges|Threads/ThreadedParity|ThreadedSpmvEdge|SpmvEngine|Threads/SpmmParity|SpmmAllFormats|SpmmEngine|SpmmSmoke|CsrWalk|DecFused|HaloDecFormat|DistComm|DistCommEpoch|DistCheckpointFile|RecoveryModel|CandidateCost|StatsScratch|Conversion|Tiny/ConversionOnSuite|Server|AdmissionQueue|EngineCache)\.' \
  "$@"
