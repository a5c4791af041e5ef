#include "src/parallel/task_graph.hpp"

#include <chrono>
#include <map>

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

}  // namespace

TaskPool::TaskPool(int workers, Topology topo) : topo_(std::move(topo)) {
  BSPMV_CHECK_MSG(workers >= 1, "TaskPool needs at least one worker");
  ws_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto pw = std::make_unique<Worker>();
    // Deterministic per-worker streams: victim order varies across
    // workers and across sweeps but not across process runs.
    pw->rng = Xoshiro256(0x5eedf00dULL + 0x9e3779b97f4a7c15ULL *
                                             static_cast<std::uint64_t>(w));
    ws_.push_back(std::move(pw));
  }
  for (int w = 0; w < workers; ++w) {
    const int my_node = topo_.node_of_worker(w, workers);
    for (int v = 0; v < workers; ++v) {
      if (v == w) continue;
      if (topo_.node_of_worker(v, workers) == my_node)
        ws_[static_cast<std::size_t>(w)]->node_victims.push_back(v);
      else
        ws_[static_cast<std::size_t>(w)]->far_victims.push_back(v);
    }
  }
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::shared_ptr<TaskPool> TaskPool::shared(int workers) {
  BSPMV_CHECK_MSG(workers >= 1, "TaskPool needs at least one worker");
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

std::shared_ptr<TaskPool::Batch> TaskPool::submit(std::vector<int> home,
                                                  TaskFn fn, DoneFn done) {
  auto b = std::make_shared<Batch>();
  b->fn = std::move(fn);
  b->home = std::move(home);
  b->done = std::move(done);
  const std::size_t n = b->home.size();
  for (int h : b->home)
    BSPMV_CHECK_MSG(h >= 0 && h < workers(),
                    "task homed on a worker outside the pool");
  b->refs.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    b->refs[i] = Batch::Ref{b.get(), static_cast<std::uint32_t>(i)};
  b->claimed = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(workers()));
  b->remaining.store(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  submitted_.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) {
    // Nothing to schedule: complete inline on the submitter.
    if (b->done) b->done(nullptr);
    b->completed = true;
    return b;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    BSPMV_CHECK_MSG(!shutdown_, "submit on a shut-down TaskPool");
    active_.push_back(b);
    ++epoch_;
    queued_.fetch_add(static_cast<std::int64_t>(n),
                      std::memory_order_relaxed);
  }
  cv_.notify_all();
  return b;
}

void TaskPool::run(std::span<const int> home, const TaskFn& fn) {
  auto b = submit(std::vector<int>(home.begin(), home.end()), fn, nullptr);
  {
    std::unique_lock<std::mutex> lock(b->wait_mu);
    b->wait_cv.wait(lock, [&] { return b->completed; });
  }
  // `completed` orders after the last task and the error store.
  if (b->first_error) std::rethrow_exception(b->first_error);
}

void TaskPool::run_async(std::span<const int> home, TaskFn fn, DoneFn done) {
  BSPMV_CHECK_MSG(static_cast<bool>(done),
                  "run_async needs a completion callback");
  (void)submit(std::vector<int>(home.begin(), home.end()), std::move(fn),
               std::move(done));
}

void TaskPool::worker_loop(int w) {
  Worker& me = *ws_[static_cast<std::size_t>(w)];
  pin_to_node(topo_, topo_.node_of_worker(w, workers()));
  std::uint64_t seen = 0;
  std::vector<std::shared_ptr<Batch>> claim_list;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (shutdown_) return;
      if (epoch_ == seen) {
        if (queued_.load(std::memory_order_relaxed) > 0) {
          // Work may still be stealable but our last sweep lost every
          // race: nap briefly instead of spinning through the sweep.
          cv_.wait_for(lock, std::chrono::microseconds(100));
        } else {
          cv_.wait(lock, [&] {
            return shutdown_ || epoch_ != seen ||
                   queued_.load(std::memory_order_relaxed) > 0;
          });
        }
        if (shutdown_) return;
      }
      seen = epoch_;
      claim_list = active_;  // snapshot of shared_ptrs; claim outside lock
    }
    for (const auto& b : claim_list) claim(*b, w);
    claim_list.clear();
    while (try_one(me, w)) {
    }
  }
}

void TaskPool::claim(Batch& b, int w) {
  if (b.claimed[static_cast<std::size_t>(w)].exchange(
          true, std::memory_order_relaxed))
    return;  // already moved into our deque on an earlier epoch
  Worker& me = *ws_[static_cast<std::size_t>(w)];
  for (std::size_t i = 0; i < b.home.size(); ++i)
    if (b.home[i] == w) me.deque.push(&b.refs[i]);
}

bool TaskPool::try_one(Worker& me, int w) {
  if (void* r = me.deque.pop()) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    execute(r, w);
    return true;
  }
  Timer timer;  // steal latency: sweep start -> successful steal
  for (int round = 0; round < 2; ++round) {
    const auto& victims = round == 0 ? me.node_victims : me.far_victims;
    const std::size_t n = victims.size();
    if (n == 0) continue;
    const std::size_t start = me.rng.below(n);
    for (std::size_t k = 0; k < n; ++k) {
      const int victim = victims[(start + k) % n];
      me.steal_attempts.fetch_add(1, std::memory_order_relaxed);
      if (void* r = ws_[static_cast<std::size_t>(victim)]->deque.steal()) {
        me.stolen.fetch_add(1, std::memory_order_relaxed);
        me.steal_ns.fetch_add(
            static_cast<std::uint64_t>(timer.elapsed() * 1e9),
            std::memory_order_relaxed);
        queued_.fetch_sub(1, std::memory_order_relaxed);
        execute(r, w);
        return true;
      }
    }
  }
  return false;
}

void TaskPool::execute(void* opaque, int w) {
  auto* ref = static_cast<Batch::Ref*>(opaque);
  Batch* b = ref->batch;
  try {
    b->fn(ref->index, w);
  } catch (...) {
    std::lock_guard<std::mutex> lock(b->err_mu);
    if (!b->first_error) b->first_error = std::current_exception();
  }
  ws_[static_cast<std::size_t>(w)]->executed.fetch_add(
      1, std::memory_order_relaxed);
  if (b->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) finish(b);
}

void TaskPool::finish(Batch* b) {
  // Keep the batch alive past the callbacks: once it leaves `active_`
  // the blocking waiter may destroy its own reference immediately.
  std::shared_ptr<Batch> self;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = active_.begin(); it != active_.end(); ++it) {
      if (it->get() == b) {
        self = std::move(*it);
        active_.erase(it);
        break;
      }
    }
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(b->err_mu);
    err = b->first_error;
  }
  if (b->done) b->done(err);  // may submit the next pass; mu_ not held
  {
    std::lock_guard<std::mutex> lock(b->wait_mu);
    b->completed = true;
  }
  b->wait_cv.notify_all();
}

TaskPoolStats TaskPool::stats() const {
  TaskPoolStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  for (const auto& w : ws_) {
    s.executed += w->executed.load(std::memory_order_relaxed);
    s.stolen += w->stolen.load(std::memory_order_relaxed);
    s.steal_attempts += w->steal_attempts.load(std::memory_order_relaxed);
    s.steal_ns += w->steal_ns.load(std::memory_order_relaxed);
    s.max_queue_depth =
        std::max<std::uint64_t>(s.max_queue_depth, w->deque.max_depth());
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
  delta("task.steal_ns", now.steal_ns, flushed_.steal_ns);
  // Additive deltas of a monotone high-water mark: the counter's value
  // always equals the current pool-wide maximum deque depth.
  delta("task.queue_depth_max", now.max_queue_depth,
        flushed_.max_queue_depth);
  flushed_ = now;
#endif
}

#define BSPMV_INST(V)                            \
  template class TaskGraphSpmv<Csr<V>>;          \
  template class TaskGraphSpmv<Bcsr<V>>;         \
  template class TaskGraphSpmv<Bcsd<V>>;         \
  template class TaskGraphSpmv<BcsrDec<V>>;      \
  template class TaskGraphSpmv<BcsdDec<V>>;
BSPMV_INST(float)
BSPMV_INST(double)
#undef BSPMV_INST

}  // namespace bspmv
