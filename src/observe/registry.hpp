// Telemetry substrate: a process-wide counter/timer registry fed by the
// instrumentation hooks in src/observe/observe.hpp.
//
// Three kinds of facts accumulate here, all keyed by name:
//   - spans      : wall time of a scoped phase (RAII Span). Spans nest —
//                  a Span opened inside another records under the dotted
//                  path "outer/inner", so conversion time inside a
//                  prepare call stays attributable to both.
//   - counters   : monotonically increasing event counts (candidates
//                  ranked, conversions failed, CSR fallbacks taken).
//   - thread time: per-worker kernel time and executed stored values,
//                  recorded by the §V-A parallel driver; the
//                  spread across tids is the direct load-imbalance view
//                  the paper's nnz-balanced partitioning targets.
//
// The registry exists in every build; what the BSPMV_OBSERVE CMake
// option controls is whether the *hooks* in library hot paths compile to
// calls or to nothing (see observe.hpp). A runtime master switch
// (environment variable BSPMV_OBSERVE=off, or set_enabled(false)) turns
// an enabled build into a near-no-op: Span construction and every add_*
// becomes a single branch.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/util/timing.hpp"

namespace bspmv::observe {

/// True when the library was compiled with the hooks in (CMake option
/// BSPMV_OBSERVE, default ON). With OFF, instrumented functions contain
/// no observability code at all and the registry only sees explicit
/// calls from tests or tools.
#if defined(BSPMV_OBSERVE_HOOKS) && BSPMV_OBSERVE_HOOKS
inline constexpr bool kHooksEnabled = true;
#else
inline constexpr bool kHooksEnabled = false;
#endif

/// Runtime master switch. Defaults to the environment: BSPMV_OBSERVE set
/// to "off", "OFF", "0" or "false" disables collection; anything else
/// (including unset) enables it.
bool enabled();
void set_enabled(bool on);

/// Accumulated wall time of one span path.
struct SpanStat {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// Accumulated kernel time of one worker under one metric.
struct ThreadStat {
  double seconds = 0.0;      ///< total kernel wall time across calls
  std::uint64_t calls = 0;   ///< run() invocations recorded
  std::uint64_t items = 0;   ///< stored values processed (totals; includes padding)
};

/// A consistent copy of everything recorded so far.
struct Snapshot {
  std::map<std::string, SpanStat> spans;
  std::map<std::string, std::uint64_t> counters;
  /// metric name -> (thread id -> accumulated stat)
  std::map<std::string, std::map<int, ThreadStat>> thread_times;
};

/// Process-wide sink. All mutators early-return when the runtime switch
/// is off; a coarse mutex is fine because spans wrap phases (conversion,
/// selection, one parallel SpMV call), not inner loops.
class CounterRegistry {
 public:
  static CounterRegistry& instance();

  void add_span(const std::string& path, double seconds);
  void add_count(const std::string& name, std::uint64_t n);
  void add_thread_time(const std::string& name, int tid, double seconds,
                       std::uint64_t items);

  Snapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  Snapshot data_;
};

/// RAII scoped timer. Records the elapsed wall time under the path
/// formed by every live enclosing Span on this thread plus `name`
/// ("select/rank", "prepare/convert/bcsr", ...). Cheap when collection
/// is off: one branch, no clock read, no allocation.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Full dotted path this span records under (empty when inactive).
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  Timer timer_;
  std::size_t parent_len_ = 0;
  bool active_ = false;
};

}  // namespace bspmv::observe
