// Reproduces Figure 2: distribution of wins (overall best measured
// performance) across the blocking methods for 1, 2 and 4 cores, single
// and double precision. 1D-VBL is excluded from the multithreaded
// evaluation, exactly as in §V-A. The matrix is split row-wise with the
// padding-aware nnz-balanced static partitioning the paper describes.
//
// Note: on machines with fewer hardware cores than the requested thread
// count this exercises the same code path under oversubscription; the
// output notes the hardware core count.
#include <cstdio>
#include <thread>

#include "bench/harness.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

const FormatKind kMethods[] = {
    FormatKind::kCsr, FormatKind::kBcsr, FormatKind::kBcsrDec,
    FormatKind::kBcsd, FormatKind::kBcsdDec,
};

std::vector<Candidate> threaded_candidates() {
  std::vector<Candidate> out;
  for (const Candidate& c : model_candidates(false))  // scalar kernels
    out.push_back(c);
  return out;
}

template <class V>
void run_precision(const BenchConfig& cfg, SweepCache& cache,
                   const std::vector<int>& ids, const std::vector<int>& cores,
                   std::map<std::string, std::map<FormatKind, int>>& wins) {
  constexpr Precision prec = precision_of<V>;
  const auto cands = threaded_candidates();
  for (int id : ids) {
    if (cfg.verbose) std::fprintf(stderr, "matrix %d (%s)...\n", id,
                                  precision_name(prec));
    const Csr<V> a = build_suite_csr<V>(id, cfg.scale);
    const auto by_threads = sweep_matrix_threaded(a, id, cands, cores, cfg, cache);
    for (int threads : cores) {
      const auto best = best_per_format(cands, by_threads.at(threads));
      FormatKind winner = FormatKind::kCsr;
      double best_t = 1e300;
      for (const auto& [kind, t] : best)
        if (t < best_t) {
          best_t = t;
          winner = kind;
        }
      const std::string col =
          std::to_string(threads) + "c-" + precision_name(prec);
      ++wins[col][winner];
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  cli.add_option("cores", "1,2,4", "comma-separated thread counts");
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;
  SweepCache cache(cfg.cache_path, cfg.no_cache);

  std::vector<int> cores;
  {
    std::string s = cli.get("cores");
    for (std::size_t pos = 0; pos < s.size();) {
      const std::size_t comma = s.find(',', pos);
      cores.push_back(std::stoi(s.substr(pos, comma - pos)));
      pos = comma == std::string::npos ? s.size() : comma + 1;
    }
  }

  std::vector<int> ids = cfg.matrix_ids;
  if (ids.empty())
    for (int i = 3; i <= 30; ++i) ids.push_back(i);

  std::map<std::string, std::map<FormatKind, int>> wins;
  run_precision<float>(cfg, cache, ids, cores, wins);
  run_precision<double>(cfg, cache, ids, cores, wins);

  std::printf("Figure 2: wins per method, 1/2/4 cores, sp and dp "
              "(scale=%s, %zu matrices, %u hardware core(s))\n",
              suite_scale_name(cfg.scale), ids.size(),
              std::thread::hardware_concurrency());
  print_rule(80);
  std::printf("%-10s", "method");
  std::vector<std::string> cols;
  for (const char* p : {"sp", "dp"})
    for (int c : cores) cols.push_back(std::to_string(c) + "c-" + p);
  for (const auto& col : cols) std::printf(" %8s", col.c_str());
  std::printf("\n");
  print_rule(80);
  for (FormatKind kind : kMethods) {
    std::printf("%-10s", format_label(kind));
    for (const auto& col : cols) std::printf(" %8d", wins[col][kind]);
    std::printf("\n");
  }
  print_rule(80);
  return 0;
}
