// Kernel profiling — produces the t_b and nof_b inputs of the MEMCOMP and
// OVERLAP models.
//
// §IV, eq. (2): "block times can be obtained by profiling the execution of
// a very small dense matrix, which is stored using every blocking method
// and block under consideration and fits in the L1 cache".
// §IV, eq. (4): nof_b is "obtained ... by profiling a large dense matrix
// that exceeds the highest level of cache".
#pragma once

#include "src/profile/cache_info.hpp"
#include "src/profile/machine_profile.hpp"
#include "src/util/run_control.hpp"

namespace bspmv {

struct ProfileOptions {
  CacheInfo cache;             ///< default-constructed => detect at runtime
  bool detect_cache = true;    ///< overwrite `cache` via sysfs probing
  double bandwidth_bps = 0.0;  ///< 0 => measure with the STREAM triad
  bool include_simd = true;    ///< profile the vectorised kernels too
  bool quick = false;          ///< smaller buffers / fewer reps (tests)
  bool verbose = false;        ///< progress lines on stderr
  /// Cloud VMs report huge *shared* L3s (hundreds of MiB) that a single
  /// core cannot realistically own; sizing the nof matrix off that would
  /// make profiling take hours. The effective LLC used for sizing is
  /// clamped to this value.
  std::size_t max_effective_llc = 32ull * 1024 * 1024;
  /// Optional deadline/cancellation for the whole profiling run, polled
  /// between kernel timings; aborts with the control's typed error.
  /// Non-owning; nullptr disables.
  RunControl* control = nullptr;
};

/// Run the full profiling pipeline (bandwidth, wire α/β, t_b and nof for
/// every kernel bench_candidates() runs: CSR, every fixed-size blocking
/// kernel and scalar 1D-VBL, both precisions).
MachineProfile profile_machine(const ProfileOptions& opt = {});

/// Load `path` if it exists, else profile and save there. The cheap way
/// for benches and examples to share one profile per machine.
MachineProfile load_or_profile(const std::string& path,
                               const ProfileOptions& opt = {});

}  // namespace bspmv
