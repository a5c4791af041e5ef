#include "bench/harness.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/engine.hpp"
#include "src/observe/report.hpp"
#include "src/util/atomic_file.hpp"
#include "src/util/macros.hpp"

namespace bspmv::bench {

void add_common_flags(CliParser& cli) {
  cli.add_option("scale", "small",
                 "suite scale: tiny (CI), small (default), paper (>=25MiB)");
  cli.add_option("iters", "10", "SpMV iterations per timed batch");
  cli.add_option("reps", "2", "timed batches per candidate");
  cli.add_option("warmup", "1", "untimed SpMVs before the first batch");
  cli.add_option("matrices", "",
                 "comma-separated suite ids to run (default: all relevant)");
  cli.add_option("profile", "machine_profile.json",
                 "machine profile path (profiled + saved on first use)");
  cli.add_option("cache", "sweep_cache.json",
                 "sweep cache path shared across bench binaries");
  cli.add_option("report", "BENCH_report.json",
                 "perf trajectory the bench appends to (empty disables)");
  cli.add_flag("no-cache", "ignore and do not write the sweep cache");
  cli.add_flag("verbose", "progress output on stderr");
}

std::optional<BenchConfig> parse_common(const CliParser& cli) {
  BenchConfig cfg;
  cfg.scale = parse_suite_scale(cli.get("scale"));
  cfg.measure.iterations = static_cast<int>(cli.get_int("iters"));
  cfg.measure.reps = static_cast<int>(cli.get_int("reps"));
  cfg.measure.warmup = static_cast<int>(cli.get_int("warmup"));
  cfg.profile_path = cli.get("profile");
  cfg.cache_path = cli.get("cache");
  cfg.report_path = cli.get("report");
  cfg.no_cache = cli.get_flag("no-cache");
  cfg.verbose = cli.get_flag("verbose");

  const std::string ids = cli.get("matrices");
  if (!ids.empty()) {
    std::istringstream is(ids);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      const int id = std::stoi(tok);
      BSPMV_CHECK_MSG(id >= 1 && id <= 30, "matrix id out of range: " + tok);
      cfg.matrix_ids.push_back(id);
    }
  }
  return cfg;
}

MachineProfile get_machine_profile(const BenchConfig& cfg) {
  ProfileOptions opt;
  opt.verbose = cfg.verbose;
  if (auto p = MachineProfile::try_load(cfg.profile_path)) {
    if (cfg.verbose)
      std::fprintf(stderr, "loaded machine profile from %s\n",
                   cfg.profile_path.c_str());
    return *p;
  }
  std::fprintf(stderr,
               "profiling machine (first run; cached to %s, ~1-3 min)...\n",
               cfg.profile_path.c_str());
  opt.verbose = cfg.verbose;
  MachineProfile p = profile_machine(opt);
  p.save(cfg.profile_path);
  return p;
}

void append_bench_report(const BenchConfig& cfg, const std::string& bench_name,
                         Json payload) {
  if (cfg.report_path.empty()) return;
  Json::Object entry;
  entry["bench"] = bench_name;
  entry["scale"] = suite_scale_name(cfg.scale);
  entry["iters"] = cfg.measure.iterations;
  entry["result"] = std::move(payload);
  observe::append_to_trajectory(cfg.report_path, Json(std::move(entry)));
  if (cfg.verbose)
    std::fprintf(stderr, "appended %s entry to %s\n", bench_name.c_str(),
                 cfg.report_path.c_str());
}

const char* format_label(FormatKind kind) {
  switch (kind) {
    case FormatKind::kCsr: return "CSR";
    case FormatKind::kBcsr: return "BCSR";
    case FormatKind::kBcsrDec: return "BCSR-DEC";
    case FormatKind::kBcsd: return "BCSD";
    case FormatKind::kBcsdDec: return "BCSD-DEC";
    case FormatKind::kVbl: return "1D-VBL";
    case FormatKind::kUbcsr: return "UBCSR";
  }
  return "?";
}

// ------------------------------------------------------------- cache ----

SweepCache::SweepCache(std::string path, bool disabled)
    : path_(std::move(path)), disabled_(disabled) {
  if (disabled_) return;
  try {
    // Checksum-verified read: a torn or bit-flipped cache is detected
    // here (io_error) and handled like any other corruption below.
    const auto text = read_file_if_exists(path_);
    if (!text) return;  // absence is normal, not corruption
    const Json j = Json::parse(*text);
    const auto& obj = j.as_object();
    const auto version = obj.find(kSchemaKey);
    if (version == obj.end() ||
        static_cast<int>(version->second.as_number()) != kSchemaVersion)
      throw validation_error("schema version mismatch; expected " +
                             std::to_string(kSchemaVersion));
    for (const auto& [k, v] : obj) {
      if (k == kSchemaKey) continue;
      Samples& s = entries_[k];
      s.min = v.at("min").as_number();
      s.median = v.at("median").as_number();
      s.iqr = v.at("iqr").as_number();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "warning: ignoring sweep cache %s (%s); re-measuring\n",
                 path_.c_str(), e.what());
    entries_.clear();
  }
}

SweepCache::~SweepCache() {
  try {
    save();
  } catch (...) {
    // Destructor must not throw; a failed save only costs re-measurement.
  }
}

std::optional<Samples> SweepCache::get(const std::string& key) const {
  if (disabled_) return std::nullopt;
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void SweepCache::put(const std::string& key, const Samples& s) {
  if (disabled_) return;
  entries_[key] = s;
  dirty_ = true;
}

void SweepCache::save() {
  if (disabled_ || !dirty_) return;
  Json::Object o;
  o[kSchemaKey] = kSchemaVersion;
  for (const auto& [k, s] : entries_) {
    Json::Object e;
    e["min"] = s.min;
    e["median"] = s.median;
    e["iqr"] = s.iqr;
    o[k] = std::move(e);
  }
  // Crash-safe: a kill mid-save leaves the previous cache intact, and
  // the checksum trailer lets the next load detect torn writes.
  atomic_write_file(path_, Json(std::move(o)).dump(-1) + '\n',
                    /*with_checksum=*/true);
  dirty_ = false;
}

std::string sweep_key(const BenchConfig& cfg, int matrix_id, Precision prec,
                      const std::string& candidate_id, int threads) {
  std::ostringstream os;
  os << suite_scale_name(cfg.scale) << '/' << matrix_id << '/'
     << precision_name(prec) << '/' << candidate_id << "/t" << threads << "/i"
     << cfg.measure.iterations;
  return os.str();
}

template <class V>
std::map<std::string, Samples> sweep_matrix(
    const Csr<V>& a, int matrix_id, const std::vector<Candidate>& candidates,
    const BenchConfig& cfg, SweepCache& cache) {
  constexpr Precision prec = precision_of<V>;
  std::map<std::string, Samples> out;
  int fresh = 0;
  for (const Candidate& c : candidates) {
    const std::string key = sweep_key(cfg, matrix_id, prec, c.id());
    if (auto hit = cache.get(key)) {
      out[c.id()] = *hit;
      continue;
    }
    const auto engine = SpmvEngine<V>::prepare(a, c);
    const Samples secs = engine.measure(cfg.measure);
    cache.put(key, secs);
    out[c.id()] = secs;
    ++fresh;
  }
  if (cfg.verbose && fresh > 0)
    std::fprintf(stderr, "  matrix %2d (%s): measured %d candidates\n",
                 matrix_id, precision_name(prec), fresh);
  cache.save();
  return out;
}

template <class V>
std::map<int, std::map<std::string, Samples>> sweep_matrix_threaded(
    const Csr<V>& a, int matrix_id, const std::vector<Candidate>& candidates,
    const std::vector<int>& threads, const BenchConfig& cfg,
    SweepCache& cache) {
  constexpr Precision prec = precision_of<V>;
  std::map<int, std::map<std::string, Samples>> out;
  for (const Candidate& c : candidates) {
    // All-or-nothing per candidate: if any thread count is missing we
    // re-measure all of them, reusing one format conversion.
    bool all_hit = true;
    for (int t : threads)
      if (!cache.get(sweep_key(cfg, matrix_id, prec, c.id(), t)))
        all_hit = false;
    if (all_hit) {
      for (int t : threads)
        out[t][c.id()] =
            *cache.get(sweep_key(cfg, matrix_id, prec, c.id(), t));
      continue;
    }
    const std::vector<Samples> secs =
        measure_threaded_multi(a, c, threads, cfg.measure, ExecBackend::kBulk);
    for (std::size_t i = 0; i < threads.size(); ++i) {
      cache.put(sweep_key(cfg, matrix_id, prec, c.id(), threads[i]), secs[i]);
      out[threads[i]][c.id()] = secs[i];
    }
  }
  cache.save();
  return out;
}

std::map<FormatKind, double> best_per_format(
    const std::vector<Candidate>& candidates,
    const std::map<std::string, Samples>& seconds) {
  std::map<FormatKind, double> best;
  for (const Candidate& c : candidates) {
    auto it = seconds.find(c.id());
    if (it == seconds.end()) continue;
    auto [bit, fresh] = best.try_emplace(c.kind, it->second.min);
    if (!fresh && it->second.min < bit->second) bit->second = it->second.min;
  }
  return best;
}

void print_rule(int n) {
  for (int i = 0; i < n; ++i) std::putchar('-');
  std::putchar('\n');
}

#define BSPMV_BENCH_INST(V)                                                  \
  template std::map<std::string, Samples> sweep_matrix(                      \
      const Csr<V>&, int, const std::vector<Candidate>&, const BenchConfig&, \
      SweepCache&);                                                          \
  template std::map<int, std::map<std::string, Samples>>                     \
  sweep_matrix_threaded(const Csr<V>&, int, const std::vector<Candidate>&,  \
                        const std::vector<int>&, const BenchConfig&,        \
                        SweepCache&);
BSPMV_BENCH_INST(float)
BSPMV_BENCH_INST(double)
#undef BSPMV_BENCH_INST

}  // namespace bspmv::bench
