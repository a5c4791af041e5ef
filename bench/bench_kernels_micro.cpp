// google-benchmark microbenchmarks of the individual SpMV kernels on a
// fixed FEM-like matrix: per-format, per-shape, scalar vs SIMD. These are
// the per-kernel numbers behind the t_b profile.
//
// The exec/ group benches the threaded driver's two schedules
// (docs/tasking.md) head-to-head through SpmvEngine at 1, 2 and 4
// threads: static (the §V-A partition, kBulk) vs steal (home ranges
// plus work stealing, kTasks), on the balanced band matrix (where
// stealing must stay within a few percent of static) and on a skewed
// R-MAT (where stealing should claw back the straggler time the static
// partition loses). exec/band_balanced/bcsr_dec_3x1_simd runs the
// decomposed format through the engine at 4 threads, the way the fem
// workloads select it (blocks and CSR remainder in one pass per task).
// pair_dec_remainder/ pairs padded and decomposed 3×1 on an audikw-like
// band whose remainder rows hold 1–5 entries, at 1 and 4 threads: the
// decomposed kernel's chunked remainder walk against the padded kernel.
// pair_csr_walk/ runs scalar and SIMD CSR on the skewed R-MAT at 1 and 4
// threads: short rows of uneven length, the chunks the CSR kernels walk
// flat (docs/formats.md, "How CSR rows are walked").
// exec/dispatch_tiny runs a 512-row diagonal, where the kernel is
// nearly free: the steal-minus-static time over the extra tasks is the
// per-task scheduling fee parallel_overhead charges (docs/models.md).
//
// The select/ group times one OVERLAP ranking of the exec group's band
// and R-MAT matrices: 26 blockings counted in 8 fused scans, one per band
// height, run as row-chunk tasks on the shared pool, then 106
// predictions (docs/models.md, "Selection cost"). The prepare/convert/
// group times one conversion to a blocked format on the same pool, its
// size and fill passes split into row chunks: bcsr_dec_3x1 on the band
// matrix and bcsd_dec_2 on the R-MAT (docs/models.md, "Conversion cost").
#include <benchmark/benchmark.h>

#include <chrono>
#include <set>
#include <string>
#include <utility>

#include "src/core/engine.hpp"
#include "src/core/executor.hpp"
#include "src/core/selector.hpp"
#include "src/gen/generators.hpp"
#include "src/parallel/backend.hpp"
#include "src/util/prng.hpp"

namespace bspmv {
namespace {

// One shared mid-size matrix (L2-resident-ish) so the microbenches finish
// quickly while still exercising real block structure.
const Csr<double>& shared_matrix() {
  static const Csr<double> a = Csr<double>::from_coo(
      gen_blocked_band<double>(8000, 3, 600, 5, 0.8, 0xbeef));
  return a;
}

void run_candidate(benchmark::State& state, const Candidate& c) {
  const Csr<double>& a = shared_matrix();
  const AnyFormat<double> f = AnyFormat<double>::convert(a, c);
  aligned_vector<double> x(static_cast<std::size_t>(a.cols()));
  Xoshiro256 rng(3);
  for (auto& e : x) e = rng.uniform() - 0.5;
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

  for (auto _ : state) {
    f.run(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(a.nnz()) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  state.counters["ws_MiB"] =
      static_cast<double>(f.working_set_bytes()) / (1024.0 * 1024.0);
}

// Skewed counterpart of shared_matrix(): R-MAT power-law rows — a few
// hubs carry most of the nonzeros, the worst case for a static
// contiguous partition.
const Csr<double>& skewed_matrix() {
  static const Csr<double> a = Csr<double>::from_coo(
      gen_rmat<double>(14, 300000, 0.57, 0.19, 0.19, 0xfeed));
  return a;
}

void run_backend(benchmark::State& state, const Csr<double>& a,
                 const Candidate& c, ExecBackend backend, int threads) {
  const auto engine = SpmvEngine<double>::prepare(a, c, threads, backend);
  aligned_vector<double> x(static_cast<std::size_t>(a.cols()));
  Xoshiro256 rng(5);
  for (auto& e : x) e = rng.uniform() - 0.5;
  aligned_vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  engine.warm_up(x.data(), y.data());  // first-touch placement
  // On a virtual machine a new thread pool can take tens of milliseconds
  // per run for its first second or so, until the guest has spread the
  // new threads over the CPUs (layerbench/README.md, "Thread warm-up").
  // Run untimed through that once per schedule, width and process.
  static std::set<std::pair<ExecBackend, int>> warm;
  if (threads > 1 && warm.insert({backend, threads}).second) {
    const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < end)
      engine.run(x.data(), y.data());
  }

  for (auto _ : state) {
    engine.run(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(a.nnz()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
  state.counters["threads"] = static_cast<double>(threads);
}

// audikw_1's generator (fill 0.70) at a quarter of its size: the 3×1
// DEC remainder holds 1–5 entries in most rows, the short rows the
// chunked remainder walk is for.
const Csr<double>& audikw_like_matrix() {
  static const Csr<double> a = Csr<double>::from_coo(
      gen_blocked_band<double>(8000, 3, 600, 8, 0.70, 0xa0d1));
  return a;
}

// A 512-row diagonal: the kernel is nearly free, so the run time is the
// driver's dispatch and per-task cost.
const Csr<double>& tiny_matrix() {
  static const Csr<double> a = [] {
    Coo<double> coo(512, 512);
    for (index_t i = 0; i < 512; ++i) coo.add(i, i, 1.0);
    return Csr<double>::from_coo(coo);
  }();
  return a;
}

// Every model kernel at one t_b and nof: ranking time is the scans' and
// the predictions', neither of which depends on the profile's numbers.
const MachineProfile& flat_profile() {
  static const MachineProfile p = [] {
    MachineProfile m;
    m.bandwidth_bps = 10e9;
    for (const Candidate& c : model_candidates(true))
      m.set_kernel(Precision::kDouble, c.kernel_id(), KernelProfile{2e-9, 0.3});
    return m;
  }();
  return p;
}

// The set-up pool may be new here: the same untimed thread warm-up as
// run_backend, once per process, ranking `a`.
void warm_setup_pool(const Csr<double>& a) {
  static bool warm = false;
  if (!warm) {
    warm = true;
    const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < end)
      (void)rank_candidates(ModelKind::kOverlap, a, flat_profile());
  }
}

void run_rank(benchmark::State& state, const Csr<double>& a) {
  warm_setup_pool(a);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        rank_candidates(ModelKind::kOverlap, a, flat_profile()));
}

void run_convert(benchmark::State& state, const Csr<double>& a,
                 const Candidate& c) {
  warm_setup_pool(a);
  for (auto _ : state)
    benchmark::DoNotOptimize(AnyFormat<double>::convert(a, c));
  state.counters["nnz"] = static_cast<double>(a.nnz());
}

const char* schedule_label(ExecBackend b) {
  return b == ExecBackend::kTasks ? "steal" : "static";
}

void register_exec(const std::string& name, const Csr<double>& (*matrix)(),
                   const Candidate& c, ExecBackend backend, int threads) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [=](benchmark::State& s) {
        run_backend(s, matrix(), c, backend, threads);
      })
      ->Unit(benchmark::kMicrosecond)
      ->MinTime(0.10)
      // Wall-clock rates: workers run kernels on pool threads, so the
      // bench thread's CPU time would inflate GFLOP/s.
      ->UseRealTime();
}

void register_all() {
  for (const Candidate& c : bench_candidates(true)) {
    benchmark::RegisterBenchmark(c.id().c_str(),
                                 [c](benchmark::State& s) {
                                   run_candidate(s, c);
                                 })
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.05);
  }
  const Candidate csr{FormatKind::kCsr, BlockShape{1, 1}, 0, Impl::kScalar};
  const Candidate dec{FormatKind::kBcsrDec, BlockShape{3, 1}, 0, Impl::kSimd};
  constexpr ExecBackend kSchedules[] = {ExecBackend::kBulk,
                                        ExecBackend::kTasks};
  for (bool skewed : {false, true})
    for (int threads : {1, 2, 4})
      for (ExecBackend b : kSchedules)
        register_exec(std::string("exec/") +
                          (skewed ? "rmat_skewed/" : "band_balanced/") +
                          schedule_label(b) + "/" + std::to_string(threads),
                      skewed ? &skewed_matrix : &shared_matrix, csr, b,
                      threads);
  for (ExecBackend b : kSchedules)
    register_exec("exec/band_balanced/" + dec.id() + "/" + schedule_label(b) +
                      "/4",
                  &shared_matrix, dec, b, 4);
  // Padded against decomposed 3×1 on the audikw-like band at 1 and 4
  // threads: the decomposed kernel should run at the padded one's speed.
  const Candidate padded{FormatKind::kBcsr, BlockShape{3, 1}, 0, Impl::kSimd};
  for (const Candidate& c : {padded, dec})
    for (int threads : {1, 4})
      register_exec("pair_dec_remainder/" + c.id() + "/" +
                        std::to_string(threads),
                    &audikw_like_matrix, c, ExecBackend::kTasks, threads);
  for (const Impl impl : {Impl::kScalar, Impl::kSimd}) {
    const Candidate c{FormatKind::kCsr, BlockShape{1, 1}, 0, impl};
    for (int threads : {1, 4})
      register_exec("pair_csr_walk/" + c.id() + "/" + std::to_string(threads),
                    &skewed_matrix, c, ExecBackend::kTasks, threads);
  }
  for (ExecBackend b : kSchedules)
    register_exec(std::string("exec/dispatch_tiny/") + schedule_label(b) +
                      "/4",
                  &tiny_matrix, csr, b, 4);
  for (bool skewed : {false, true})
    benchmark::RegisterBenchmark(
        (std::string("select/rank/") +
         (skewed ? "rmat_skewed" : "band_balanced"))
            .c_str(),
        [skewed](benchmark::State& s) {
          run_rank(s, skewed ? skewed_matrix() : shared_matrix());
        })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.10)
        ->UseRealTime();
  const Candidate bcsd_dec{FormatKind::kBcsdDec, BlockShape{1, 1}, 2,
                           Impl::kScalar};
  for (bool skewed : {false, true}) {
    const Candidate c = skewed ? bcsd_dec : Candidate{FormatKind::kBcsrDec,
                                                      BlockShape{3, 1}, 0,
                                                      Impl::kScalar};
    benchmark::RegisterBenchmark(
        (std::string("prepare/convert/") +
         (skewed ? "rmat_skewed/" : "band_balanced/") + c.id())
            .c_str(),
        [skewed, c](benchmark::State& s) {
          run_convert(s, skewed ? skewed_matrix() : shared_matrix(), c);
        })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.10)
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace bspmv

int main(int argc, char** argv) {
  bspmv::register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
