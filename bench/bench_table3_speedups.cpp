// Reproduces Table III: per matrix, the min/avg/max speedup over standard
// CSR across all blocks tested, for each blocking method — double
// precision, non-vectorised kernels (the paper's reported configuration).
#include <cstdio>

#include "bench/harness.hpp"

using namespace bspmv;
using namespace bspmv::bench;

namespace {

struct MinAvgMax {
  double min = 1e300, sum = 0.0, max = 0.0;
  int n = 0;
  void add(double x) {
    min = std::min(min, x);
    max = std::max(max, x);
    sum += x;
    ++n;
  }
  double avg() const { return n ? sum / n : 0.0; }
};

constexpr FormatKind kMethods[] = {FormatKind::kBcsr, FormatKind::kBcsrDec,
                                   FormatKind::kBcsd, FormatKind::kBcsdDec};

struct Row {
  int id;
  std::map<FormatKind, MinAvgMax> per;
  double vbl = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto cfg_opt = parse_common(cli);
  if (!cfg_opt) return 0;
  const BenchConfig& cfg = *cfg_opt;
  SweepCache cache(cfg.cache_path, cfg.no_cache);

  std::vector<int> ids = cfg.matrix_ids;
  if (ids.empty())
    for (int i = 1; i <= 30; ++i) ids.push_back(i);  // Table III includes all

  // Scalar candidates only (dp, no simd), plus 1D-VBL.
  std::vector<Candidate> cands;
  for (const Candidate& c : bench_candidates(true))
    if (c.impl == Impl::kScalar) cands.push_back(c);

  std::vector<Row> rows;
  for (int id : ids) {
    if (cfg.verbose) std::fprintf(stderr, "matrix %d...\n", id);
    const Csr<double> a = build_suite_csr<double>(id, cfg.scale);
    const auto secs = sweep_matrix(a, id, cands, cfg, cache);
    const double csr_t = secs.at("csr_scalar").min;
    Row row;
    row.id = id;
    for (const Candidate& c : cands) {
      if (c.kind == FormatKind::kCsr || c.kind == FormatKind::kVbl) continue;
      row.per[c.kind].add(csr_t / secs.at(c.id()).min);
    }
    row.vbl = csr_t / secs.at("vbl_scalar").min;
    rows.push_back(std::move(row));
  }

  std::printf("Table III: speedup over CSR per matrix, all blocks tested "
              "(double precision, scalar kernels, scale=%s)\n",
              suite_scale_name(cfg.scale));
  print_rule(110);
  std::printf("%-18s | %-17s | %-17s | %-17s | %-17s | %6s\n", "matrix",
              "      BCSR", "    BCSR-DEC", "      BCSD", "    BCSD-DEC",
              "1D-VBL");
  std::printf("%-18s | %5s %5s %5s | %5s %5s %5s | %5s %5s %5s | %5s %5s %5s "
              "| %6s\n",
              "", "min", "avg", "max", "min", "avg", "max", "min", "avg",
              "max", "min", "avg", "max", "");
  print_rule(110);

  std::map<FormatKind, MinAvgMax> col_min, col_avg, col_max;
  MinAvgMax col_vbl;
  for (const Row& row : rows) {
    std::printf("%02d.%-15s |", row.id,
                suite_catalog()[static_cast<size_t>(row.id - 1)].name.c_str());
    for (FormatKind m : kMethods) {
      const MinAvgMax& s = row.per.at(m);
      std::printf(" %5.2f %5.2f %5.2f |", s.min, s.avg(), s.max);
      col_min[m].add(s.min);
      col_avg[m].add(s.avg());
      col_max[m].add(s.max);
    }
    std::printf(" %6.2f\n", row.vbl);
    col_vbl.add(row.vbl);
  }
  print_rule(110);
  std::printf("%-18s |", "Average");
  for (FormatKind m : kMethods)
    std::printf(" %5.2f %5.2f %5.2f |", col_min[m].avg(), col_avg[m].avg(),
                col_max[m].avg());
  std::printf(" %6.2f\n", col_vbl.avg());
  print_rule(110);
  return 0;
}
