// Machine profile: every machine-dependent input of the performance
// models, persisted as JSON so the (minutes-long) profiling runs once.
//
//  - BW       : effective memory bandwidth (STREAM triad, eq. 1)
//  - t_b      : per-kernel block execution time, profiled on a dense
//               matrix resident in L1 (eq. 2)
//  - nof_b    : per-kernel non-overlapping factor, profiled on a dense
//               matrix exceeding the LLC (eq. 4)
//  - α, β     : inter-process wire latency and bandwidth (t_comm)
#pragma once

#include <map>
#include <optional>
#include <string>

#include "src/formats/common.hpp"
#include "src/util/json.hpp"

namespace bspmv {

/// Profiled parameters of one kernel (one block method + block + impl).
struct KernelProfile {
  double tb = 0.0;   ///< seconds per block, L1-resident dense profiling
  double nof = 1.0;  ///< non-overlapping factor in [0, 1], eq. (4)
};

class MachineProfile {
 public:
  /// Serialisation schema version. Bump when the JSON layout or the
  /// meaning of any profiled quantity changes; try_load treats a version
  /// mismatch as "stale profile" and triggers re-profiling. Keys a
  /// model no longer reads (read bandwidth, latency, private cache size,
  /// effective LLC size) are dropped without a bump: from_json ignores
  /// unknown keys, so profiles written with them keep loading.
  static constexpr int kSchemaVersion = 2;

  double bandwidth_bps = 0.0;  ///< STREAM triad bytes/second
  /// Inter-process wire parameters of t_comm = α·msgs + bytes/β, profiled
  /// over the same socketpair frame path the distributed runtime uses
  /// (profile_comm, src/profile/comm_bench.*). Zero β means "never
  /// profiled" — t_comm refuses to guess, and profiles saved before the
  /// distributed extension load fine with these defaults (the fields are
  /// optional in the JSON).
  double comm_alpha_seconds = 0.0;  ///< per-frame latency α
  double comm_beta_bps = 0.0;       ///< streaming wire bandwidth β
  std::string description;          ///< free-form provenance note

  /// Register / overwrite a kernel's profile.
  void set_kernel(Precision p, const std::string& kernel_id,
                  KernelProfile kp);

  /// Lookup; throws invalid_argument_error when the kernel was never
  /// profiled (models refuse to guess).
  const KernelProfile& kernel(Precision p, const std::string& kernel_id) const;

  bool has_kernel(Precision p, const std::string& kernel_id) const;

  const std::map<std::string, KernelProfile>& kernels(Precision p) const {
    return p == Precision::kSingle ? kernels_sp_ : kernels_dp_;
  }

  Json to_json() const;
  static MachineProfile from_json(const Json& j);

  void save(const std::string& path) const;
  static MachineProfile load(const std::string& path);
  /// Load if `path` exists, parses and carries the current schema
  /// version; otherwise nullopt (the caller re-profiles). A missing file
  /// is silent; a corrupt or version-mismatched one logs a one-line
  /// warning to stderr — silent-corruption recovery hides real bugs.
  static std::optional<MachineProfile> try_load(const std::string& path);

 private:
  std::map<std::string, KernelProfile> kernels_sp_;
  std::map<std::string, KernelProfile> kernels_dp_;
};

}  // namespace bspmv
