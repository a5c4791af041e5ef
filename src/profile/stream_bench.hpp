// Effective memory bandwidth and latency micro-benchmarks.
//
// The MEM model's BW parameter is "the effective memory bandwidth of the
// system" measured STREAM-style (§V cites McCalpin's STREAM [11]); we
// implement the triad kernel (a[i] = b[i] + s·c[i]). A read-only sum and a
// dependent-load pointer chase (memory latency) are calibration aids that
// bench_stream reports next to it; no model reads them.
#pragma once

#include <cstddef>

#include "src/util/run_control.hpp"

namespace bspmv {

struct StreamOptions {
  std::size_t array_bytes = 64 * 1024 * 1024;  ///< per array; >> LLC
  int trials = 5;                              ///< best-of-k
  /// Optional deadline/cancellation, polled between trials (one trial is
  /// a few tens of ms, so aborts land promptly). Non-owning.
  RunControl* control = nullptr;
};

/// STREAM triad bandwidth in bytes/second (3 arrays of traffic per pass).
double stream_triad_bandwidth(const StreamOptions& opt = {});

/// Read-only (sum reduction) bandwidth in bytes/second.
double stream_read_bandwidth(const StreamOptions& opt = {});

/// Average dependent-load latency (seconds) over a buffer exceeding the
/// LLC — a random-permutation pointer chase defeats the prefetchers.
double memory_latency_seconds(std::size_t buffer_bytes = 64 * 1024 * 1024);

}  // namespace bspmv
