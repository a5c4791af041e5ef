#include "src/parallel/task_pool.hpp"

#include <map>

#include "src/observe/observe.hpp"
#include "src/util/macros.hpp"
#include "src/util/timing.hpp"

#include <unistd.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace bspmv {

namespace {

// Best-effort worker pinning: restrict the worker to every CPU of its
// NUMA node (not a single CPU — the OS may still balance within the
// node), so the first-touch warm-up pass and the steady-state runs see
// the same memory node. Pinning only happens on genuinely multi-node
// machines; failures (cgroup cpusets, masked CPUs) are silently ignored.
void pin_to_node(const Topology& topo, int node_index) {
#if defined(__linux__)
  if (!topo.numa_detected || topo.nodes.size() < 2) return;
  const auto& cpus = topo.nodes[static_cast<std::size_t>(node_index)].cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) {
      CPU_SET(c, &set);
      any = true;
    }
  }
  if (any) (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)topo;
  (void)node_index;
#endif
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin iterations between clock reads while spinning.
constexpr unsigned kSpinCheckMask = 255;

}  // namespace

TaskPool::TaskPool(int workers, Topology topo)
    : topo_(std::move(topo)),
      slots_(static_cast<std::size_t>(workers > 0 ? workers : 1)),
      loads_(slots_.size()) {
  BSPMV_CHECK_MSG(workers >= 1, "TaskPool needs at least one worker");
  // Victim order: same node first, then everyone else, each in ring
  // order from the next slot (with one node that is plain ring order).
  for (int w = 0; w < workers; ++w) {
    const int node = topo_.node_of_worker(w, workers);
    auto& victims = slots_[static_cast<std::size_t>(w)].victims;
    for (int near = 1; near >= 0; --near)
      for (int k = 1; k < workers; ++k) {
        const int v = (w + k) % workers;
        if ((topo_.node_of_worker(v, workers) == node) == (near == 1))
          victims.push_back(v);
      }
  }
  threads_.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

TaskPool::~TaskPool() {
  shutdown_.store(true, std::memory_order_seq_cst);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::shared_ptr<TaskPool> TaskPool::shared(int workers) {
  BSPMV_CHECK_MSG(workers >= 1, "TaskPool needs at least one worker");
  // The registry's pools belong to the process that built it: their
  // threads do not survive fork(). A forked child gets a threadless pool
  // of its own, which runs every job inline on the caller, instead of a
  // pool whose dead workers would never take their home tasks. Checked
  // before the lock, which a parent thread may have held at fork.
  static const pid_t owner = getpid();
  if (getpid() != owner) return std::make_shared<TaskPool>(1);
  static std::mutex reg_mu;
  // shared_ptr (not weak_ptr) on purpose: pools persist for the process.
  // If the registry dropped the last reference while an engine released
  // its own on a pool worker thread, the pool would join itself.
  static std::map<int, std::shared_ptr<TaskPool>> pools;
  std::lock_guard<std::mutex> lock(reg_mu);
  auto& slot = pools[workers];
  if (!slot) slot = std::make_shared<TaskPool>(workers);
  return slot;
}

void TaskPool::validate(const Job& job) const {
  const auto home = job.home();
  BSPMV_CHECK_MSG(home.size() == slots_.size() + 1 && home.front() == 0,
                  "task homes must give one range per pool worker");
  for (std::size_t w = 0; w + 1 < home.size(); ++w)
    BSPMV_CHECK_MSG(home[w] <= home[w + 1],
                    "task home ranges must be non-decreasing");
  BSPMV_CHECK_MSG(home.back() <= TaskCursor::kMaxTasks,
                  "too many tasks in one job");
}

std::exception_ptr TaskPool::run_inline(Job& job) {
  WorkerLoad load;
  std::exception_ptr err;
  Timer timer;
  const std::uint32_t n = job.home().back();
  for (std::uint32_t t = 0; t < n; ++t) {
    try {
      load.items += job.run_task(t, 0);
    } catch (...) {
      if (!err) err = std::current_exception();
    }
  }
  load.seconds = timer.elapsed();
  job.finish({&load, 1});
  return err;
}

void TaskPool::run(Job& job) {
  validate(job);
  bool acquired = false;
  if (!threads_.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!busy_) busy_ = acquired = true;
  }
  if (!acquired) {
    if (!threads_.empty())
      inline_runs_.fetch_add(1, std::memory_order_relaxed);
    if (auto err = run_inline(job)) std::rethrow_exception(err);
    return;
  }
  reset_job_state();
  if (publish(job)) {
    participate(0, epoch_.load(std::memory_order_relaxed), &job, job.steal());
    // The caller spins on the completion count, yielding past the budget
    // (a descheduled worker may still hold a task).
    Timer spin;
    for (unsigned i = 1; remaining_.load(std::memory_order_acquire) != 0; ++i) {
      cpu_relax();
      if ((i & kSpinCheckMask) == 0 && spin.elapsed() > kSpinSeconds)
        std::this_thread::yield();
    }
  }
  const std::exception_ptr err = error_;
  job.finish(loads_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    busy_ = false;
  }
  if (err) std::rethrow_exception(err);
}

void TaskPool::reset_job_state() {
  for (WorkerLoad& l : loads_) l = WorkerLoad{};
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
}

bool TaskPool::publish(Job& job) {
  const auto home = job.home();
  const std::uint32_t n = home.back();
  if (n == 0) return false;
  const std::uint32_t gen = epoch_.load(std::memory_order_relaxed) + 1;
  remaining_.store(n, std::memory_order_relaxed);
  job_.store(&job, std::memory_order_relaxed);
  steal_.store(job.steal(), std::memory_order_relaxed);
  for (std::size_t w = 0; w < slots_.size(); ++w)
    slots_[w].cursor.reset(gen, home[w], home[w + 1]);
  submitted_.fetch_add(n, std::memory_order_relaxed);
  // seq_cst store + seq_cst sleeper load pair with the parking worker's
  // seq_cst increment + wait: either it sees the new epoch or we see it.
  epoch_.store(gen, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) epoch_.notify_all();
  return true;
}

void TaskPool::participate(int w, std::uint32_t gen, Job* job, bool steal) {
  Slot& me = slots_[static_cast<std::size_t>(w)];
  std::uint32_t done = 0;
  std::uint64_t items = 0;
  Timer busy;
  const auto execute = [&](std::uint32_t task) {
    if (done++ == 0) busy.reset();
    try {
      items += job->run_task(task, w);
    } catch (...) {
      if (!failed_.exchange(true, std::memory_order_acq_rel))
        error_ = std::current_exception();
    }
  };
  std::uint32_t task = 0;
  while (me.cursor.take_front(gen, task)) execute(task);
  if (steal) {
    // No task is ever added to a running batch, so one sweep that finds
    // every victim empty ends this slot's part in it.
    std::uint64_t stolen = 0;
    for (int v : me.victims) {
      TaskCursor& victim = slots_[static_cast<std::size_t>(v)].cursor;
      while (victim.take_back(gen, task)) {
        execute(task);
        ++stolen;
      }
    }
    me.steal_attempts.fetch_add(me.victims.size() + stolen,
                                std::memory_order_relaxed);
    if (stolen != 0) me.stolen.fetch_add(stolen, std::memory_order_relaxed);
  }
  // A slot that claimed nothing may be late for a batch that already
  // completed: it must not touch the job or the shared counters.
  if (done == 0) return;
  WorkerLoad& load = loads_[static_cast<std::size_t>(w)];
  load.seconds += busy.elapsed();
  load.items += items;
  me.executed.fetch_add(done, std::memory_order_relaxed);
  remaining_.fetch_sub(done, std::memory_order_acq_rel);
}

std::uint32_t TaskPool::wait_epoch(std::uint32_t seen) {
  Timer spin;
  for (unsigned i = 1;; ++i) {
    const std::uint32_t e = epoch_.load(std::memory_order_acquire);
    if (e != seen) return e;
    cpu_relax();
    if ((i & kSpinCheckMask) == 0 && spin.elapsed() > kSpinSeconds) break;
  }
  parks_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.wait(seen, std::memory_order_seq_cst);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    const std::uint32_t e = epoch_.load(std::memory_order_acquire);
    if (e != seen) return e;
  }
}

void TaskPool::worker_loop(int w) {
  pin_to_node(topo_, topo_.node_of_worker(w, workers()));
  // Start from the construction-time epoch so a batch published before
  // this thread ran is still joined.
  std::uint32_t seen = 0;
  for (;;) {
    seen = wait_epoch(seen);
    if (shutdown_.load(std::memory_order_acquire)) return;
    participate(w, seen, job_.load(std::memory_order_relaxed),
                steal_.load(std::memory_order_relaxed));
  }
}

TaskPoolStats TaskPool::stats() const {
  TaskPoolStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  for (const Slot& slot : slots_) {
    s.executed += slot.executed.load(std::memory_order_relaxed);
    s.stolen += slot.stolen.load(std::memory_order_relaxed);
    s.steal_attempts += slot.steal_attempts.load(std::memory_order_relaxed);
  }
  return s;
}

void TaskPool::flush_observe() {
#if defined(BSPMV_OBSERVE_HOOKS) && BSPMV_OBSERVE_HOOKS
  std::lock_guard<std::mutex> lock(flush_mu_);
  const TaskPoolStats now = stats();
  auto& reg = observe::CounterRegistry::instance();
  const auto delta = [&](const char* name, std::uint64_t cur,
                         std::uint64_t prev) {
    if (cur > prev) reg.add_count(name, cur - prev);
  };
  delta("task.submitted", now.submitted, flushed_.submitted);
  delta("task.executed", now.executed, flushed_.executed);
  delta("task.stolen", now.stolen, flushed_.stolen);
  delta("task.steal_attempts", now.steal_attempts, flushed_.steal_attempts);
  delta("task.parks", now.parks, flushed_.parks);
  delta("task.inline_runs", now.inline_runs, flushed_.inline_runs);
  flushed_ = now;
#endif
}

}  // namespace bspmv
