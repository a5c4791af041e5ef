#include "src/profile/machine_profile.hpp"

#include <cstdio>

#include "src/util/atomic_file.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

void MachineProfile::set_kernel(Precision p, const std::string& kernel_id,
                                KernelProfile kp) {
  (p == Precision::kSingle ? kernels_sp_ : kernels_dp_)[kernel_id] = kp;
}

const KernelProfile& MachineProfile::kernel(Precision p,
                                            const std::string& kernel_id) const {
  const auto& m = p == Precision::kSingle ? kernels_sp_ : kernels_dp_;
  auto it = m.find(kernel_id);
  BSPMV_CHECK_MSG(it != m.end(), "kernel '" + kernel_id + "' (" +
                                     precision_name(p) +
                                     ") missing from machine profile");
  return it->second;
}

bool MachineProfile::has_kernel(Precision p,
                                const std::string& kernel_id) const {
  const auto& m = p == Precision::kSingle ? kernels_sp_ : kernels_dp_;
  return m.count(kernel_id) != 0;
}

namespace {

Json kernels_to_json(const std::map<std::string, KernelProfile>& m) {
  Json::Object o;
  for (const auto& [id, kp] : m) {
    Json::Object e;
    e["tb"] = kp.tb;
    e["nof"] = kp.nof;
    o[id] = Json(std::move(e));
  }
  return Json(std::move(o));
}

std::map<std::string, KernelProfile> kernels_from_json(const Json& j) {
  std::map<std::string, KernelProfile> m;
  for (const auto& [id, e] : j.as_object())
    m[id] = KernelProfile{e.at("tb").as_number(), e.at("nof").as_number()};
  return m;
}

}  // namespace

Json MachineProfile::to_json() const {
  Json j;
  j["schema_version"] = kSchemaVersion;
  j["bandwidth_bps"] = bandwidth_bps;
  j["comm_alpha_seconds"] = comm_alpha_seconds;
  j["comm_beta_bps"] = comm_beta_bps;
  j["description"] = description;
  j["kernels_sp"] = kernels_to_json(kernels_sp_);
  j["kernels_dp"] = kernels_to_json(kernels_dp_);
  return j;
}

MachineProfile MachineProfile::from_json(const Json& j) {
  const int version =
      j.contains("schema_version")
          ? static_cast<int>(j.at("schema_version").as_number())
          : 1;
  if (version != kSchemaVersion)
    throw validation_error(
        "machine profile schema version " + std::to_string(version) +
        " does not match expected " + std::to_string(kSchemaVersion) +
        "; re-profiling required");
  MachineProfile p;
  // Keys written by older builds (read_bandwidth_bps, latency_seconds,
  // private_cache_bytes, effective_llc_bytes) and kernels no candidate
  // uses any more are ignored, not rejected.
  p.bandwidth_bps = j.at("bandwidth_bps").as_number();
  if (j.contains("comm_alpha_seconds"))
    p.comm_alpha_seconds = j.at("comm_alpha_seconds").as_number();
  if (j.contains("comm_beta_bps"))
    p.comm_beta_bps = j.at("comm_beta_bps").as_number();
  p.description = j.at("description").as_string();
  p.kernels_sp_ = kernels_from_json(j.at("kernels_sp"));
  p.kernels_dp_ = kernels_from_json(j.at("kernels_dp"));
  return p;
}

void MachineProfile::save(const std::string& path) const {
  // Crash-safe: temp file + fsync + rename, with a trailing checksum so
  // a torn or bit-flipped profile is detected at load time instead of
  // silently mis-modelling the machine.
  atomic_write_file(path, to_json().dump(2) + '\n', /*with_checksum=*/true);
}

MachineProfile MachineProfile::load(const std::string& path) {
  return from_json(Json::parse(read_file_checked(path)));
}

std::optional<MachineProfile> MachineProfile::try_load(
    const std::string& path) {
  std::optional<std::string> text;
  try {
    text = read_file_if_exists(path);  // verifies the checksum trailer
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "warning: ignoring machine profile %s (%s); re-profiling\n",
                 path.c_str(), e.what());
    return std::nullopt;
  }
  if (!text) return std::nullopt;  // absence is normal, not corruption
  try {
    return from_json(Json::parse(*text));
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "warning: ignoring machine profile %s (%s); re-profiling\n",
                 path.c_str(), e.what());
    return std::nullopt;
  }
}

}  // namespace bspmv
