// Instrumentation hooks — the only observability header library code
// includes. Every hook is a macro that expands to a registry call when
// the library is built with the BSPMV_OBSERVE CMake option (default ON)
// and to literally nothing with -DBSPMV_OBSERVE=OFF, so a disabled build
// carries zero observability cost: no clock reads, no branches, no
// symbols referenced from the hot paths.
//
// Hook map (what is instrumented where):
//   select/rank            rank_candidates()        src/core/selector.cpp
//   select                 select_and_prepare()     src/core/selector.cpp
//   select.stats_scans     block statistics pass    src/formats/stats.cpp
//   prepare[/convert/<fmt>] try_prepare/try_convert src/core/executor.cpp
//   convert/<fmt>          AnyFormat::convert()     src/core/executor.cpp
//   measure/spmv|threaded  SpmvEngine::measure()    src/core/engine.cpp
//   parallel/<fmt>         per-thread kernel time   src/parallel/parallel_spmv.hpp
// Counter semantics are specified in docs/observability.md.
#pragma once

#if defined(BSPMV_OBSERVE_HOOKS) && BSPMV_OBSERVE_HOOKS

#include "src/observe/registry.hpp"

#define BSPMV_OBS_CAT2(a, b) a##b
#define BSPMV_OBS_CAT(a, b) BSPMV_OBS_CAT2(a, b)

/// Open an RAII span for the rest of the enclosing scope.
#define BSPMV_OBS_SPAN(name) \
  ::bspmv::observe::Span BSPMV_OBS_CAT(bspmv_obs_span_, __LINE__) { name }

/// Bump a named counter by n.
#define BSPMV_OBS_COUNT(name, n) \
  ::bspmv::observe::CounterRegistry::instance().add_count(name, n)

/// Declare a per-thread stopwatch (inside a parallel region).
#define BSPMV_OBS_THREAD_TIMER(var) ::bspmv::Timer var

/// Record the stopwatch under `name` for thread `tid` with `items`
/// stored values processed this call.
#define BSPMV_OBS_THREAD_RECORD(name, tid, var, items)             \
  ::bspmv::observe::CounterRegistry::instance().add_thread_time(   \
      name, tid, (var).elapsed(), items)

#else  // hooks compiled out

#define BSPMV_OBS_SPAN(name) ((void)0)
#define BSPMV_OBS_COUNT(name, n) ((void)0)
#define BSPMV_OBS_THREAD_TIMER(var) ((void)0)
#define BSPMV_OBS_THREAD_RECORD(name, tid, var, items) ((void)0)

#endif
