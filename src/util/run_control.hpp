// RunControl — the cooperative execution-control primitive threaded
// through SpmvEngine::measure, the ThreadedSpmv driver, the kernel
// profiler and the STREAM benchmarks.
//
// One RunControl carries three cooperating facilities for a run:
//
//   deadline      an absolute steady-clock point after which the run must
//                 unwind with bspmv::timeout_error. Workers never read
//                 the clock on the hot path; poll() is a single relaxed
//                 atomic load, and the clock is read only by check()
//                 (once per measurement iteration) and by the Watchdog.
//   cancellation  request_cancel() from any thread flips the stop flag;
//                 the run unwinds with bspmv::cancelled_error at the next
//                 poll point (granule-chunk boundary or iteration edge).
//   progress      heartbeat(slot) bumps a per-thread relaxed counter at
//                 granule boundaries. The Watchdog samples these; if no
//                 thread makes progress for the stall timeout it aborts
//                 the run with timeout_error ("stalled worker") instead
//                 of letting the pipeline hang.
//
// Abort is sticky and first-wins: whichever of {cancel, deadline, stall}
// fires first determines the typed error every subsequent check() throws.
// A RunControl is reusable across runs until it aborts; after an abort it
// stays aborted (callers construct a fresh one per logical attempt).
//
// RunControl::current() exposes the active control as a thread-local
// ambient pointer inside ThreadedSpmv tasks, so deep code (kernels,
// fault-injection test formats) can poll cancellation without plumbing a
// parameter through every FormatOps signature.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "src/util/errors.hpp"

namespace bspmv {

/// Why a RunControl tripped its stop flag.
enum class AbortReason : int {
  kNone = 0,       ///< still running
  kCancelled = 1,  ///< request_cancel() — cancelled_error
  kDeadline = 2,   ///< deadline expired — timeout_error
  kStalled = 3,    ///< watchdog saw no progress — timeout_error
};

const char* abort_reason_name(AbortReason r);

class RunControl {
 public:
  /// Per-thread heartbeat slots; thread ids are folded into this range
  /// (power of two), which only ever merges progress — never loses it.
  static constexpr int kThreadSlots = 64;

  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  // --- configuration (set before handing the control to a run) ---------

  /// Arm a deadline `seconds` from now. The run aborts with
  /// timeout_error once the steady clock passes it.
  void set_deadline(double seconds);
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }
  /// Seconds until the deadline (negative when expired); +inf without one.
  double remaining_seconds() const;

  /// Maximum time the Watchdog tolerates with zero heartbeat progress
  /// before declaring the run stalled; 0 disables stall detection.
  void set_stall_timeout(double seconds) { stall_timeout_ = seconds; }
  double stall_timeout() const { return stall_timeout_; }

  /// Base interval at which a Watchdog monitoring this control wakes to
  /// check the deadline and heartbeats (it still polls faster near a
  /// deadline or tight stall budget). Servers shorten it for snappy abort
  /// latency; batch sweeps lengthen it to shed wakeups.
  void set_watchdog_poll(double seconds);
  double watchdog_poll() const { return watchdog_poll_; }

  // --- cancellation ----------------------------------------------------

  /// Cooperative cancel from any thread; the run unwinds with
  /// cancelled_error at its next poll point.
  void request_cancel(const std::string& why = "cancelled by caller") {
    abort(AbortReason::kCancelled, why);
  }

  /// Trip the stop flag with a reason; first abort wins, later ones are
  /// ignored. Used by the Watchdog and by check() on deadline expiry.
  void abort(AbortReason r, const std::string& why);

  /// The cheap worker poll: one relaxed load, no clock read. True once
  /// the run must unwind.
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  // --- checkpoints -----------------------------------------------------

  /// Iteration-edge checkpoint: reads the clock to enforce the deadline
  /// even without a Watchdog, then throws the typed error if aborted.
  void check();

  /// Throw cancelled_error/timeout_error matching the abort reason; no-op
  /// while the run is live. Never reads the clock.
  void throw_if_aborted() const;

  // --- progress --------------------------------------------------------

  /// Record forward progress for `slot` (pool worker slot or 0 for the
  /// measurement loop itself). Relaxed increment — safe at granule rate.
  void heartbeat(int slot) {
    beats_[static_cast<std::size_t>(slot) & (kThreadSlots - 1)].fetch_add(
        1, std::memory_order_relaxed);
  }
  std::uint64_t beats(int slot) const {
    return beats_[static_cast<std::size_t>(slot) & (kThreadSlots - 1)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t total_beats() const;

  // --- outcome ---------------------------------------------------------

  AbortReason reason() const {
    return static_cast<AbortReason>(reason_.load(std::memory_order_acquire));
  }
  /// Human-readable abort message (empty while live).
  std::string message() const;

  // --- ambient control -------------------------------------------------

  /// The RunControl governing the current thread's work, or nullptr.
  /// Set by ThreadedSpmv around every task via ScopedCurrent.
  static RunControl* current();

  /// RAII setter for current(); restores the previous value on exit.
  class ScopedCurrent {
   public:
    explicit ScopedCurrent(RunControl* rc);
    ~ScopedCurrent();
    ScopedCurrent(const ScopedCurrent&) = delete;
    ScopedCurrent& operator=(const ScopedCurrent&) = delete;

   private:
    RunControl* prev_;
  };

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> reason_{static_cast<int>(AbortReason::kNone)};
  /// Deadline as steady_clock nanoseconds-since-epoch; 0 = none.
  std::atomic<std::int64_t> deadline_ns_{0};
  double stall_timeout_ = 0.0;
  double watchdog_poll_ = 0.01;
  std::array<std::atomic<std::uint64_t>, kThreadSlots> beats_{};
  mutable std::mutex msg_mu_;
  std::string msg_;
};

/// Background monitor for one run: a thread that wakes every poll
/// interval, enforces the RunControl's deadline, and — when a stall
/// timeout is set — aborts the run if the heartbeat counters stop
/// advancing (a wedged worker, a livelocked barrier). RAII: the thread
/// is joined on destruction. Constructing a Watchdog on a control with
/// neither a deadline nor a stall timeout is a no-op (no thread spawned).
///
/// `poll_seconds <= 0` (the default) adopts the control's
/// watchdog_poll() interval, so callers tune one knob on RunControl
/// instead of plumbing an extra parameter everywhere a Watchdog spawns.
class Watchdog {
 public:
  explicit Watchdog(RunControl& control, double poll_seconds = 0.0);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void loop();

  RunControl* control_;
  double poll_seconds_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool quit_ = false;
  std::thread thread_;
};

}  // namespace bspmv
