// The schedule policy of the one threaded driver (ThreadedSpmv,
// src/parallel/parallel_spmv.hpp; docs/tasking.md).
//
// Every threaded consumer (SpmvEngine, the serving daemon, the tools'
// --executor flag) picks how the driver hands out each pass's granules
// to its workers. Both schedules start from the same home ranges — the
// paper's §V-A nnz-balanced partition, one contiguous range per worker —
// and run on the same persistent TaskPool:
//
//   kBulk   the paper's static schedule: each worker runs exactly its
//           home range as one task, no stealing. The Fig. 2 harness
//           uses it so the reproduction keeps the paper's driver.
//   kTasks  home ranges split into up to kTasksPerThread nnz-balanced
//           tasks; a worker that drains its own range steals tasks from
//           the back of the others'. The engine's default.
//
// Both schedules produce bitwise-identical output: a row is written by
// exactly one task in the serial per-row accumulation order, and the
// registry parity suites pin bulk == tasks == serial for every parallel
// format.
#pragma once

#include <string>

#include "src/util/errors.hpp"

namespace bspmv {

enum class ExecBackend { kBulk, kTasks };

/// Tasks per home range of the stealing schedule (capped at one task per
/// granule). Fine enough that the last stolen task is a small fraction
/// of a thread's share on power-law matrices; measured better than 8 on
/// every layerbench matrix. parallel_overhead models the same split.
inline constexpr int kTasksPerThread = 32;

inline const char* backend_name(ExecBackend b) {
  return b == ExecBackend::kTasks ? "tasks" : "bulk";
}

/// Parse a --executor value; throws invalid_argument_error on anything
/// other than "bulk" or "tasks" so CLI misuse surfaces as a typed error
/// (exit code 1 in mtx_tool / bspmv_serve).
inline ExecBackend parse_backend(const std::string& s) {
  if (s == "bulk") return ExecBackend::kBulk;
  if (s == "tasks") return ExecBackend::kTasks;
  throw invalid_argument_error("unknown executor backend '" + s +
                               "' (expected bulk|tasks)");
}

}  // namespace bspmv
