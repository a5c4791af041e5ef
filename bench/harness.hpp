// Shared infrastructure for the table/figure reproduction benches.
//
// Every bench binary accepts the same core flags (--scale, --iters,
// --matrices, --profile, --cache, ...), shares one machine profile on
// disk, and — critically — shares a *sweep cache*: measuring all ~107
// candidates on all 30 matrices is by far the dominant cost, and Tables
// II/III and Figures 3/4 (plus Table IV) all consume the same sweep, so
// the first bench to run persists the timings and the rest reuse them.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/executor.hpp"
#include "src/gen/suite.hpp"
#include "src/profile/block_profiler.hpp"
#include "src/util/cli.hpp"
#include "src/util/json.hpp"

namespace bspmv::bench {

struct BenchConfig {
  SuiteScale scale = SuiteScale::kSmall;
  MeasureOptions measure;                 ///< per-candidate timing knobs
  std::string profile_path = "machine_profile.json";
  std::string cache_path = "sweep_cache.json";
  std::string report_path = "BENCH_report.json";  ///< trajectory ("" = off)
  std::vector<int> matrix_ids;            ///< suite ids to run
  bool no_cache = false;
  bool verbose = false;
};

/// Install the shared bench flags on a CliParser.
void add_common_flags(CliParser& cli);

/// Parse argv into a BenchConfig (flags must have been installed with
/// add_common_flags; binaries may add their own flags first). Returns
/// nullopt if --help was requested.
std::optional<BenchConfig> parse_common(const CliParser& cli);

/// Load the shared machine profile, profiling (and saving) on first use.
MachineProfile get_machine_profile(const BenchConfig& cfg);

/// Human-readable format labels matching the paper's tables.
const char* format_label(FormatKind kind);

/// Append one bench result entry to the BENCH_report.json trajectory so
/// successive runs accumulate a machine-readable perf history. The entry
/// is wrapped with the bench name and the run configuration; writing is
/// skipped when cfg.report_path is empty. Corrupt trajectories follow
/// the warn-and-regenerate policy (DESIGN.md §7).
void append_bench_report(const BenchConfig& cfg, const std::string& bench_name,
                         Json payload);

// ----------------------------------------------------------------------
// Sweep cache
// ----------------------------------------------------------------------

/// Persistent map from measurement key to its Samples, of which the file
/// keeps min, median and IQR (not the per-batch list). Keys embed everything
/// that affects the number: suite scale, matrix id, precision, candidate
/// id, thread count, and the iteration count.
class SweepCache {
 public:
  /// Cache file schema version; a mismatch (or any corruption) logs a
  /// one-line warning and falls back to re-measuring, same policy as
  /// MachineProfile::try_load.
  static constexpr int kSchemaVersion = 3;
  /// Reserved key the version is stored under (never a sweep_key: those
  /// always contain '/').
  static constexpr const char* kSchemaKey = "__schema_version";

  SweepCache(std::string path, bool disabled);
  ~SweepCache();  // saves on destruction (best effort)

  std::optional<Samples> get(const std::string& key) const;
  void put(const std::string& key, const Samples& s);
  void save();

 private:
  std::string path_;
  bool disabled_;
  bool dirty_ = false;
  std::map<std::string, Samples> entries_;
};

/// Canonical cache key for a single-threaded candidate measurement.
std::string sweep_key(const BenchConfig& cfg, int matrix_id, Precision prec,
                      const std::string& candidate_id, int threads = 1);

/// Measure (or load from cache) every candidate on one suite matrix.
/// Returns candidate id -> samples of seconds per SpMV (min is the
/// paper's number).
template <class V>
std::map<std::string, Samples> sweep_matrix(
    const Csr<V>& a, int matrix_id, const std::vector<Candidate>& candidates,
    const BenchConfig& cfg, SweepCache& cache);

/// Threaded variant (CSR/BCSR/BCSD/DEC candidates only): measures every
/// requested thread count per candidate with a single format conversion.
/// Returns threads -> (candidate id -> samples).
template <class V>
std::map<int, std::map<std::string, Samples>> sweep_matrix_threaded(
    const Csr<V>& a, int matrix_id, const std::vector<Candidate>& candidates,
    const std::vector<int>& threads, const BenchConfig& cfg,
    SweepCache& cache);

// ----------------------------------------------------------------------
// Small output helpers
// ----------------------------------------------------------------------

/// Group per-candidate minimum seconds by format kind, keeping the
/// minimum (the format's best block): the quantity Tables II/III and
/// Fig. 2 rank.
std::map<FormatKind, double> best_per_format(
    const std::vector<Candidate>& candidates,
    const std::map<std::string, Samples>& seconds);

/// Print a horizontal rule of width n.
void print_rule(int n);

#define BSPMV_BENCH_DECL(V)                                                  \
  extern template std::map<std::string, Samples> sweep_matrix(               \
      const Csr<V>&, int, const std::vector<Candidate>&, const BenchConfig&, \
      SweepCache&);                                                          \
  extern template std::map<int, std::map<std::string, Samples>>              \
  sweep_matrix_threaded(const Csr<V>&, int, const std::vector<Candidate>&,  \
                        const std::vector<int>&, const BenchConfig&,        \
                        SweepCache&);
BSPMV_BENCH_DECL(float)
BSPMV_BENCH_DECL(double)
#undef BSPMV_BENCH_DECL

}  // namespace bspmv::bench
