// TaskPool: the persistent worker pool behind the one threaded driver
// (ThreadedSpmv, src/parallel/parallel_spmv.hpp; docs/tasking.md).
//
// A pool of width W owns W-1 std::thread workers (slots 1..W-1); the
// thread that calls run() is slot 0 for that run. Work arrives as a Job:
// one batch of tasks [0, n) whose home ranges (one contiguous range per
// slot) the job supplies. Every slot holds one TaskCursor — its
// remaining home tasks packed into a single 64-bit word — and takes
// tasks from the front with a CAS. With stealing on, a slot
// whose range is empty sweeps the other slots once (same NUMA node first
// when there is more than one node, then ring order) and takes tasks
// from the back of their ranges. Tasks are never added to a running
// batch, so one sweep that finds every cursor empty means the slot is
// done; the job completes when the executed count reaches n.
//
// Dispatch is a 32-bit epoch word: publishing a batch resets the
// cursors and bumps the epoch. Idle workers spin on the epoch for
// kSpinSeconds, then park on std::atomic::wait; the publisher only
// issues a wake-up when someone is parked. The caller spins on the
// completion count. A run allocates nothing.
//
// One job holds the pool at a time. A caller that finds the pool busy
// runs its whole job inline on its own thread (the result is the same:
// a row's tasks and their order do not depend on who runs them).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/parallel/topology.hpp"

namespace bspmv {

/// One slot's remaining home tasks: generation (32 bits) | lo (16) | hi
/// (16) in one atomic word, so a claim is a single CAS and a claim
/// against a finished batch's generation fails instead of taking a task
/// of the batch that reused the cursor.
class TaskCursor {
 public:
  static constexpr std::uint32_t kMaxTasks = 0xffff;

  /// Publisher only: tasks [lo, hi) of generation gen (hi <= kMaxTasks).
  void reset(std::uint32_t gen, std::uint32_t lo, std::uint32_t hi) {
    word_.store(pack(gen, lo, hi), std::memory_order_release);
  }
  /// Owner end: claim the lowest remaining task of generation gen.
  bool take_front(std::uint32_t gen, std::uint32_t& task) {
    return take(gen, task, /*front=*/true);
  }
  /// Thief end: claim the highest remaining task of generation gen.
  bool take_back(std::uint32_t gen, std::uint32_t& task) {
    return take(gen, task, /*front=*/false);
  }

 private:
  static std::uint64_t pack(std::uint32_t gen, std::uint32_t lo,
                            std::uint32_t hi) {
    return std::uint64_t{gen} << 32 | std::uint64_t{lo} << 16 | hi;
  }
  bool take(std::uint32_t gen, std::uint32_t& task, bool front) {
    std::uint64_t c = word_.load(std::memory_order_acquire);
    for (;;) {
      const auto lo = static_cast<std::uint32_t>(c >> 16) & kMaxTasks;
      const auto hi = static_cast<std::uint32_t>(c) & kMaxTasks;
      if (static_cast<std::uint32_t>(c >> 32) != gen || lo >= hi)
        return false;
      const std::uint64_t next =
          front ? pack(gen, lo + 1, hi) : pack(gen, lo, hi - 1);
      if (word_.compare_exchange_weak(c, next, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        task = front ? lo : hi - 1;
        return true;
      }
    }
  }

  std::atomic<std::uint64_t> word_{0};
};

/// Cumulative pool-wide scheduler telemetry (relaxed sums over slots).
struct TaskPoolStats {
  std::uint64_t submitted = 0;       ///< tasks published to the pool
  std::uint64_t executed = 0;        ///< tasks run by pool dispatch
  std::uint64_t stolen = 0;          ///< of those, run off their home slot
  std::uint64_t steal_attempts = 0;  ///< victim claims tried (incl. misses)
  std::uint64_t parks = 0;           ///< worker sleeps after the spin budget
  std::uint64_t inline_runs = 0;     ///< jobs run on a caller: pool was busy
};

class TaskPool {
 public:
  /// How long an idle worker spins on the epoch before parking, and how
  /// long a blocking caller spins on the completion count before it
  /// starts yielding. Long enough to cover the serial gap between
  /// back-to-back SpMVs (waking a parked worker costs a futex round
  /// trip), short enough that idle pools stop burning CPU quickly.
  static constexpr double kSpinSeconds = 0.5e-3;

  /// Busy seconds (first claim to last task end) and executed weight of
  /// one slot over one job.
  struct WorkerLoad {
    double seconds = 0.0;
    std::uint64_t items = 0;
  };

  /// A unit of pool work: one batch of tasks, owned by the caller of
  /// run().
  class Job {
   public:
    virtual ~Job() = default;
    /// workers()+1 non-decreasing task bounds: slot w's home range is
    /// [home[w], home[w+1]), and home.back() is the job's task count.
    virtual std::span<const std::uint32_t> home() const = 0;
    virtual bool steal() const = 0;
    /// Run one task on slot `worker`; returns the weight it processed.
    virtual std::size_t run_task(std::uint32_t task, int worker) = 0;
    /// Called once, after the last task, on the caller's thread, while
    /// the job still holds the pool (also when a task threw). load has
    /// one entry per slot.
    virtual void finish(std::span<const WorkerLoad> load) = 0;
  };

  explicit TaskPool(int workers, Topology topo = Topology::detect());
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int workers() const { return static_cast<int>(slots_.size()); }

  /// Run `job` with the calling thread as slot 0; returns after finish().
  /// Rethrows the first task exception. When the pool is busy — another
  /// caller's job, or this call comes from inside a task or a finish() —
  /// the job runs inline (run_inline).
  void run(Job& job);

  /// Every task in order on the calling thread as slot 0, then finish()
  /// (with one load entry). Needs no pool. Returns the first task
  /// exception; the tasks after it still run.
  static std::exception_ptr run_inline(Job& job);

  TaskPoolStats stats() const;

  /// Record the telemetry accumulated since the previous flush into the
  /// observe registry (task.submitted / task.executed / task.stolen /
  /// task.steal_attempts / task.parks / task.inline_runs). Serialised
  /// internally so concurrent engines sharing the pool never
  /// double-count.
  void flush_observe();

  /// Process-wide pool registry keyed by width: every engine asking for
  /// the same thread count shares one persistent pool (the serving
  /// daemon's "one pool, many engines" mode). Pools live until process
  /// exit. Called in a process forked after the registry was built, it
  /// returns a new pool of width 1 (no threads), so every job runs inline
  /// on the caller; a job planned for a wider pool fails validation there.
  static std::shared_ptr<TaskPool> shared(int workers);

 private:
  struct alignas(64) Slot {
    TaskCursor cursor;
    alignas(64) std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::vector<int> victims;  ///< steal order, excluding self
  };

  void validate(const Job& job) const;
  void reset_job_state();
  bool publish(Job& job);
  void participate(int w, std::uint32_t gen, Job* job, bool steal);
  std::uint32_t wait_epoch(std::uint32_t seen);
  void worker_loop(int w);

  Topology topo_;
  std::vector<Slot> slots_;
  /// Per-slot load of the current job: written by each slot before its
  /// completion-count decrement, read by the finisher after the count
  /// reached zero.
  std::vector<WorkerLoad> loads_;
  std::vector<std::thread> threads_;

  // Current batch, written by the holder before the epoch store. Workers
  // read them racily: a stale read can only meet cursors of a finished
  // generation, where every claim fails.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<Job*> job_{nullptr};
  std::atomic<bool> steal_{false};
  alignas(64) std::atomic<std::int64_t> remaining_{0};
  alignas(64) std::atomic<int> sleepers_{0};
  std::atomic<bool> shutdown_{false};

  std::atomic<bool> failed_{false};  ///< first task error claimed
  std::exception_ptr error_;         ///< written by the claimer only

  std::mutex mu_;      ///< guards busy_
  bool busy_ = false;  ///< a job holds the pool, until after its finish()

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> inline_runs_{0};
  std::mutex flush_mu_;
  TaskPoolStats flushed_;
};

}  // namespace bspmv
