// layerbench — the repository benchmark: one workload per run, measured
// from outside the library by timing calls into its public functions.
//
//   layerbench --workload <fem_blocked|graph_irregular|serve_mixed|dist_halo>
//              --seed N --seconds S --trace 0|1 --profile FILE --out-dir DIR
//              [--scale tiny|small] [--corrupt]
//
// --trace 0 prints the end-to-end metrics of the workload with the
// library's observability switched off. --trace 1 switches it on, pushes
// the workload's matrices through every layer (core selection, format
// conversion, serial kernel, threaded backend, engine, serve round trip,
// dist iteration) and prints the per-layer metrics; spans and a counter
// snapshot go to DIR/trace-<workload>-<seed>.json.
//
// Every result is checked against serial CSR (spmv(Csr), scalar) with a
// per-row bound derived from row length and machine epsilon. Informational
// lines start with '#'; the last line is the JSON result. The exit code is
// 1 when any checked result failed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/models.hpp"
#include "src/core/selector.hpp"
#include "src/core/working_set.hpp"
#include "src/dist/driver.hpp"
#include "src/gen/generators.hpp"
#include "src/gen/suite.hpp"
#include "src/kernels/spmv.hpp"
#include "src/observe/registry.hpp"
#include "src/parallel/partition.hpp"
#include "src/profile/block_profiler.hpp"
#include "src/profile/cache_info.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/util/errors.hpp"
#include "src/util/json.hpp"
#include "src/util/prng.hpp"

namespace {

using namespace bspmv;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kSetupReps = 3;      // set-ups per untraced run (median)
constexpr int kBurstsPerSegment = 8;  // solve: SpMV bursts per matrix per set-up
constexpr int kDistSetupReps = 7;  // dist set-up is cheap and jittery
constexpr int kRegretTop = 6;      // ranked candidates measured for regret
/// Halo-exchange iterations per DistSpmv::run: enough that the scatter of x,
/// the gather of y and the ranks' per-run exchange set-up are a small share
/// of a dist operation, which is then timed per iteration.
constexpr int kDistIterations = 8;
constexpr double kBatchSeconds = 0.005;  // interleaved timing batch

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set of this process since the last reset_peak_rss(), and
/// of any reaped child (dist ranks), in MiB.
double peak_rss_mib() {
  double self_kib = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) self_kib = std::stod(line.substr(6));
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  if (self_kib == 0) self_kib = static_cast<double>(self.ru_maxrss);
  return std::max(self_kib, static_cast<double>(kids.ru_maxrss)) / 1024.0;
}

/// Start a new peak-RSS window (Linux clear_refs "5"; a no-op elsewhere).
/// Every set-up segment measures its own peak and the run reports their
/// median: the allocator's free lists make one segment's peak jitter.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// ---------------------------------------------------------------------------
// Output: '#' info lines, then one JSON result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void info(const std::string& line) { std::printf("# %s\n", line.c_str()); }

template <class... A>
void infof(const char* fmt, A... a) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, a...);
  info(buf);
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at the end
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  double start = 0, end = 0;
  int parent = -1;       ///< index into the same tracer, -1 = root
  std::int64_t id = -1;  ///< matrix id or request number
};

class Tracer {
 public:
  bool on = false;
  std::vector<SpanRecord> spans;

  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::int64_t id) : t_(t) {
      if (!t_.on) return;
      idx_ = static_cast<int>(t_.spans.size());
      t_.spans.push_back({std::move(name), now(), 0.0, t_.open_, id});
      prev_ = t_.open_;
      t_.open_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      t_.spans[static_cast<std::size_t>(idx_)].end = now();
      t_.open_ = prev_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
    int prev_ = -1;
  };

  /// Append another tracer's spans (e.g. a client thread's), re-rooting
  /// its top-level spans under `parent`.
  void merge(const Tracer& o, int parent) {
    const int base = static_cast<int>(spans.size());
    for (SpanRecord s : o.spans) {
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans.push_back(std::move(s));
    }
  }
  int open() const { return open_; }

 private:
  int open_ = -1;
};

void write_trace(const std::string& path, const Tracer& t, double t0,
                 const std::vector<Metric>& metrics) {
  const observe::Snapshot snap = observe::CounterRegistry::instance().snapshot();
  Json doc;
  Json::Array spans;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRecord& s = t.spans[i];
    Json& j = spans.emplace_back();
    j["i"] = i;
    j["name"] = s.name;
    j["start"] = s.start - t0;
    j["end"] = s.end - t0;
    j["parent"] = s.parent;
    j["id"] = s.id;
  }
  doc["spans"] = std::move(spans);
  doc["counters"] = Json::Object{};
  for (const auto& [k, v] : snap.counters) doc["counters"][k] = v;
  doc["library_spans"] = Json::Object{};
  for (const auto& [k, v] : snap.spans) {
    doc["library_spans"][k]["seconds"] = v.seconds;
    doc["library_spans"][k]["calls"] = v.calls;
  }
  for (const Metric& m : metrics) doc["metrics"][m.name] = m.value;
  std::ofstream(path) << doc.dump(-1) << "\n";
}

// ---------------------------------------------------------------------------
// Correctness gate: every checked y against serial CSR
// ---------------------------------------------------------------------------

/// y = A·x from serial scalar CSR plus a per-row error bound: both sums
/// are orderings of the same n products, so each is within γ_n·Σ|a||x| of
/// the exact value (γ_n = n·u/(1−n·u), u = eps/2); the bound allows twice
/// that, with n one above the row length.
struct Reference {
  std::vector<double> y, tol;
};

Reference make_reference(const Csr<double>& a, const double* x) {
  Reference r;
  const auto n = static_cast<std::size_t>(a.rows());
  aligned_vector<double> y(n);
  spmv(a, x, y.data(), Impl::kScalar);
  r.y.assign(y.begin(), y.end());
  r.tol.resize(n);
  const double u = std::numeric_limits<double>::epsilon() / 2;
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_ind();
  const auto& v = a.val();
  for (std::size_t i = 0; i < n; ++i) {
    double abs_sum = 0;
    for (auto k = rp[i]; k < rp[i + 1]; ++k)
      abs_sum += std::fabs(v[static_cast<std::size_t>(k)] *
                           x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])]);
    const double len = static_cast<double>(rp[i + 1] - rp[i]) + 1;
    const double gamma = len * u / (1 - len * u);
    r.tol[i] = 2 * gamma * abs_sum + std::numeric_limits<double>::denorm_min();
  }
  return r;
}

class Gate {
 public:
  explicit Gate(bool corrupt) : corrupt_(corrupt) {}

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why) {
    failed_ += 1;
    std::lock_guard<std::mutex> lk(mu_);
    if (first_failure_.empty()) first_failure_ = why;
  }

  /// Compare `y` with the reference; a mismatch counts one failed operation.
  /// With --corrupt the first checked vector is perturbed first, so the
  /// self-test can prove that the gate trips.
  bool check(const Reference& ref, const double* y, const std::string& what) {
    checked_ += 1;
    const std::size_t n = ref.y.size();
    bool perturb = corrupt_ && !corrupted_.exchange(true);
    for (std::size_t i = 0; i < n; ++i) {
      double yi = y[i];
      if (perturb && i == n / 2) yi += 1.0 + std::fabs(yi);
      if (!(std::fabs(yi - ref.y[i]) <= ref.tol[i])) {
        fail(what + ": row " + std::to_string(i) + " = " + num(yi) +
               ", reference " + num(ref.y[i]));
        return false;
      }
    }
    return true;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t checked() const { return checked_; }
  std::string first_failure() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_failure_;
  }

 private:
  const bool corrupt_;
  std::atomic<bool> corrupted_{false};
  std::atomic<std::uint64_t> attempted_{0}, failed_{0}, checked_{0};
  mutable std::mutex mu_;
  std::string first_failure_;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  SuiteScale scale = SuiteScale::kSmall;
  std::string profile_path;
  std::string out_dir = ".";
  bool corrupt = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") o.workload = val();
    else if (k == "--seed") o.seed = std::stoull(val());
    else if (k == "--seconds") o.seconds = std::stod(val());
    else if (k == "--trace") o.trace = std::stoi(val()) != 0;
    else if (k == "--scale") o.scale = parse_suite_scale(val());
    else if (k == "--profile") o.profile_path = val();
    else if (k == "--out-dir") o.out_dir = val();
    else if (k == "--corrupt") o.corrupt = true;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (o.profile_path.empty()) throw std::invalid_argument("--profile is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + k);
  return sm.next();
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Xoshiro256 rng(seed);
  for (double& e : v) e = rng.uniform() - 0.5;
  return v;
}

/// One workload matrix with its seeded input vectors and their references.
struct Mat {
  int id = 0;  ///< suite id, or 100+i for the serve matrices
  std::string name;
  Csr<double> a;
  std::vector<std::vector<double>> xs;
  std::vector<Reference> refs;
  double flops() const { return 2.0 * static_cast<double>(a.nnz()); }
};

/// Two seeded input vectors per matrix: the solve and dist phases alternate
/// them round by round, serve requests pick one at random, the ladder uses
/// the first.
Mat make_mat(int id, std::string name, Csr<double> a, std::uint64_t seed) {
  Mat m{id, std::move(name), std::move(a), {}, {}};
  for (int k = 0; k < 2; ++k) {
    m.xs.push_back(random_vector(static_cast<std::size_t>(m.a.cols()),
                                 mix(seed, static_cast<std::uint64_t>(id * 16 + k))));
    m.refs.push_back(make_reference(m.a, m.xs.back().data()));
  }
  return m;
}

std::vector<Mat> build_matrices(const Options& o) {
  std::vector<Mat> out;
  auto suite = [&](std::initializer_list<int> ids) {
    for (int id : ids)
      out.push_back(make_mat(id, suite_catalog()[static_cast<std::size_t>(id - 1)].name,
                             build_suite_csr<double>(id, o.scale), o.seed));
  };
  if (o.workload == "fem_blocked") suite({20, 21, 26, 27});
  else if (o.workload == "graph_irregular") suite({10, 11, 12, 28});
  else if (o.workload == "dist_halo") suite({7, 17});
  else if (o.workload == "serve_mixed") {
    // Four seeded 3-dof FEM band matrices; the structure parameters are
    // fixed so every seed poses the same sizes.
    const index_t nodes = o.scale == SuiteScale::kTiny ? 800 : 5000;
    const index_t band = o.scale == SuiteScale::kTiny ? 60 : 300;
    for (int i = 0; i < 4; ++i) {
      Coo<double> c = gen_blocked_band<double>(nodes, 3, band, 4, 1.0,
                                               mix(o.seed, 1000 + i));
      out.push_back(make_mat(100 + i, "band" + std::to_string(i),
                             Csr<double>::from_coo(std::move(c)), o.seed));
    }
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/// The benchmark's own machine profile, so that profiling noise cannot
/// flip a selection between runs. If it does not load, re-profile (quick
/// mode) and say so. The digest in the output makes a changed profile, and
/// so a possible selection flip, visible.
MachineProfile load_profile(const Options& o) {
  if (auto p = MachineProfile::try_load(o.profile_path)) {
    std::ifstream f(o.profile_path);
    std::stringstream ss;
    ss << f.rdbuf();
    infof("profile: pinned %s, digest %016llx", o.profile_path.c_str(),
          static_cast<unsigned long long>(fnv1a(ss.str())));
    return *p;
  }
  info("profile: pinned profile " + o.profile_path +
       " did not load; re-profiling (quick mode), selections may differ");
  ProfileOptions po;
  po.quick = true;
  MachineProfile p = profile_machine(po);
  infof("profile: re-profiled, digest %016llx",
        static_cast<unsigned long long>(fnv1a(p.to_json().dump())));
  return p;
}

int solve_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc == 0 ? 1u : hc, 1u, 4u));
}

/// On a virtual machine a new process's OpenMP team can run each parallel
/// region for tens of milliseconds during its first second or so, until
/// the guest scheduler has spread the spinning threads over the CPUs; it
/// stays fast afterwards, serial gaps included. Run threaded CSR SpMVs
/// untimed, in 0.1 s windows, until that has happened (at least 1.5 s and
/// a window median within 1.5x of the best, at most 5 s), so that no timed
/// phase starts inside it.
void warm_up_threads(const Csr<double>& a, const double* x, int threads) {
  const auto eng = SpmvEngine<double>::prepare(a, Candidate{}, threads);
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  const double start = now();
  double first = 0, best = std::numeric_limits<double>::infinity(), med = 0;
  for (double elapsed = 0; elapsed < 5; elapsed = now() - start) {
    std::vector<double> t;
    for (const double end = now() + 0.1; now() < end;) {
      const double t0 = now();
      eng.run(x, y.data());
      t.push_back(now() - t0);
    }
    med = median(t);
    if (first == 0) first = med;
    best = std::min(best, med);
    if (elapsed >= 1.5 && med < 1.5 * best) break;
  }
  infof("thread warm-up: %d-thread SpMV median %.4f ms at start, %.4f ms after %.1f s",
        threads, first * 1e3, med * 1e3, now() - start);
}

// ---------------------------------------------------------------------------
// Timing helper: interleaved batches, median per-call seconds
// ---------------------------------------------------------------------------

/// Median per-call seconds of each function. Batches of the functions are
/// interleaved so that drift and interference hit all of them alike.
std::vector<double> interleaved_medians(
    const std::vector<std::function<void()>>& fns, double budget_s,
    int min_rounds = 5) {
  std::vector<int> batch(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    const double t0 = now();
    fns[i]();
    const double t = std::max(now() - t0, 1e-7);
    batch[i] = std::clamp(static_cast<int>(kBatchSeconds / t), 1, 1000);
  }
  std::vector<std::vector<double>> s(fns.size());
  const double end = now() + budget_s;
  for (int r = 0; r < min_rounds || now() < end; ++r) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const double t0 = now();
      for (int k = 0; k < batch[i]; ++k) fns[i]();
      s[i].push_back((now() - t0) / batch[i]);
    }
  }
  std::vector<double> out;
  for (const auto& v : s) out.push_back(median(v));
  return out;
}

// ---------------------------------------------------------------------------
// Layer: core + formats + kernels + parallel (selection and engine)
// ---------------------------------------------------------------------------

struct Selected {
  std::vector<RankedCandidate> ranked;
  std::optional<SpmvEngine<double>> engine;  ///< threaded, min(nproc, 4)
};

/// rank_candidates (OVERLAP) + SpmvEngine::prepare for one matrix; returns
/// the seconds this took (matrix generation excluded).
double select_and_prepare(Tracer& tr, const Mat& m, const MachineProfile& prof,
                          int threads, Selected& sel, double* rank_s = nullptr,
                          double* prepare_s = nullptr) {
  Tracer::Scope span(tr, "core/setup", m.id);
  const double t0 = now();
  {
    Tracer::Scope s(tr, "core/rank", m.id);
    sel.ranked = rank_candidates(ModelKind::kOverlap, m.a, prof);
  }
  const double t1 = now();
  std::vector<Candidate> ids;
  for (const auto& rc : sel.ranked) ids.push_back(rc.candidate);
  {
    Tracer::Scope s(tr, "core/prepare", m.id);
    sel.engine.emplace(SpmvEngine<double>::prepare(m.a, ids, threads));
  }
  const double t2 = now();
  if (rank_s) *rank_s += t1 - t0;
  if (prepare_s) *prepare_s += t2 - t1;
  return t2 - t0;
}

struct LadderSums {
  double rank_s = 0, prepare_s = 0, ranked = 0;
  double convert_s = 0, ws_sel = 0, ws_csr = 0;
  double flops = 0, t_any = 0, t_eng0 = 0, pred_overlap = 0, pred_mem = 0;
  double t_regret_sel = 0, t_regret_best = 0;
  double t_one = 0, t_par = 0, pred_par = 0;
  double busy_max = 0, busy_mean = 0;
  std::vector<double> t_par_by_mat;  ///< threaded engine seconds per matrix
};

/// Per-thread busy seconds recorded under "parallel/<fmt>" between two
/// registry snapshots: {max, mean} over the threads.
std::pair<double, double> thread_busy(const observe::Snapshot& before,
                                      const observe::Snapshot& after) {
  double mx = 0, sum = 0;
  int n = 0;
  for (const auto& [name, tids] : after.thread_times) {
    if (name.rfind("parallel/", 0) != 0) continue;
    const auto prev = before.thread_times.find(name);
    for (const auto& [tid, st] : tids) {
      double s = st.seconds;
      if (prev != before.thread_times.end()) {
        const auto p = prev->second.find(tid);
        if (p != prev->second.end()) s -= p->second.seconds;
      }
      if (s <= 0) continue;
      mx = std::max(mx, s);
      sum += s;
      ++n;
    }
  }
  return {mx, n ? sum / n : 0.0};
}

/// Push every matrix through selection, conversion, the serial kernel,
/// the engine and the threaded backend (traced run). `sel` keeps the
/// prepared threaded engines for the workload's own phase.
LadderSums run_ladder(Tracer& tr, const std::vector<Mat>& mats,
                      const MachineProfile& prof, int threads, Gate& gate,
                      std::vector<Selected>& sel) {
  constexpr double kBudget = 0.4;  // timing seconds per matrix and step
  LadderSums L;
  sel.clear();
  sel.resize(mats.size());
  for (std::size_t i = 0; i < mats.size(); ++i)
    select_and_prepare(tr, mats[i], prof, threads, sel[i], &L.rank_s, &L.prepare_s);
  for (std::size_t i = 0; i < mats.size(); ++i) {
    const Mat& m = mats[i];
    const Candidate c = sel[i].engine->format().candidate();
    L.ranked += static_cast<double>(sel[i].ranked.size());

    // formats: conversion of the selected candidate and its working set
    const double t0 = now();
    std::optional<AnyFormat<double>> f;
    {
      Tracer::Scope s(tr, "formats/convert", m.id);
      f.emplace(AnyFormat<double>::convert(m.a, c));
    }
    L.convert_s += now() - t0;
    L.ws_sel += static_cast<double>(f->working_set_bytes());
    L.ws_csr += static_cast<double>(m.a.working_set_bytes());

    // Every timed function writes its own NaN-filled y, checked after its
    // timing, so a function that is fast but wrong (or writes nothing)
    // fails the gate instead of moving a metric.
    const double* x = m.xs[0].data();
    const auto rows = static_cast<std::size_t>(m.a.rows());
    auto outputs = [rows](std::size_t k) {
      return std::vector<std::vector<double>>(k, std::vector<double>(rows, kNaN));
    };
    auto check = [&](const std::vector<double>& y, const std::string& what) {
      gate.attempt();
      gate.check(m.refs[0], y.data(), what + " " + m.name);
    };

    // kernels and core: bare AnyFormat::run against SpmvEngine::run at
    // threads=0 on the same converted format
    const auto eng0 = SpmvEngine<double>::borrow(*f, 0);
    {
      Tracer::Scope s(tr, "kernels/serial", m.id);
      auto ys = outputs(2);
      const auto t = interleaved_medians(
          {[&] { f->run(x, ys[0].data()); }, [&] { eng0.run(x, ys[1].data()); }},
          kBudget);
      L.t_any += t[0];
      L.t_eng0 += t[1];
      check(ys[0], "serial");
      check(ys[1], "engine0");
    }
    const CandidateCost cost = candidate_cost(m.a, c);
    L.pred_overlap += predict_overlap(cost, prof, Precision::kDouble);
    L.pred_mem += predict_mem(cost, prof);
    L.flops += m.flops();

    // core: regret of the selection against the top ranked candidates,
    // all timed in one interleaved batch
    {
      Tracer::Scope s(tr, "core/regret", m.id);
      std::vector<AnyFormat<double>> top;
      for (const RankedCandidate& rc : sel[i].ranked) {
        if (static_cast<int>(top.size()) == kRegretTop) break;
        if (auto g = try_convert(m.a, rc.candidate)) top.push_back(std::move(*g));
      }
      auto ys = outputs(top.size() + 1);
      std::vector<std::function<void()>> fns{[&] { f->run(x, ys[0].data()); }};
      for (std::size_t k = 0; k < top.size(); ++k)
        fns.push_back([&, k] { top[k].run(x, ys[k + 1].data()); });
      const auto t = interleaved_medians(fns, kBudget, 3);
      L.t_regret_sel += t[0];
      L.t_regret_best += *std::min_element(t.begin(), t.end());
      std::string line = m.name + " serial ms:";
      for (std::size_t k = 0; k < top.size(); ++k)
        line += " " + top[k].candidate().id() + "=" + num(t[k + 1] * 1e3);
      info(line);
      check(ys[0], "regret selected");
      for (std::size_t k = 0; k < top.size(); ++k)
        check(ys[k + 1], "regret " + top[k].candidate().id());
    }

    // parallel: one thread against `threads` threads, same format
    {
      Tracer::Scope s(tr, "parallel/threaded", m.id);
      const auto eng1 = SpmvEngine<double>::borrow(*f, 1);
      const auto engt = SpmvEngine<double>::borrow(*f, threads);
      auto ys = outputs(2);
      const auto t = interleaved_medians(
          {[&] { eng1.run(x, ys[0].data()); }, [&] { engt.run(x, ys[1].data()); }},
          kBudget);
      L.t_one += t[0];
      L.t_par += t[1];
      L.t_par_by_mat.push_back(t[1]);
      infof("%s threaded ms: 1 thread=%s %d threads=%s", m.name.c_str(),
            num(t[0] * 1e3).c_str(), threads, num(t[1] * 1e3).c_str());
      check(ys[0], "1 thread");
      check(ys[1], "threaded");
      const auto before = observe::CounterRegistry::instance().snapshot();
      for (int k = 0; k < 20; ++k) engt.run(x, ys[1].data());
      const auto busy =
          thread_busy(before, observe::CounterRegistry::instance().snapshot());
      L.busy_max += busy.first;
      L.busy_mean += busy.second;
      const ParallelOverhead ov = parallel_overhead(row_weights(m.a), threads);
      L.pred_par += predict_parallel(ModelKind::kOverlap, cost, prof,
                                     Precision::kDouble, threads, ov,
                                     ExecBackend::kBulk);
    }
  }
  return L;
}

// ---------------------------------------------------------------------------
// Solve phase: steady-state y = A·x through the prepared engines
// ---------------------------------------------------------------------------

/// Timed operations of the solve and dist phases. One operation is a round:
/// one y = A·x on every matrix of the workload, in turn. A round's time is
/// reported as the sum of the per-matrix medians: it moves less with
/// interference from outside the benchmark than the rounds' own median or
/// a count of rounds per second.
struct RoundPhase {
  /// Per-SpMV seconds by matrix, split by tracing state.
  std::vector<std::vector<double>> off, on;
  std::vector<double> rounds_off;  ///< seconds per untraced round

  /// Pool another segment's samples into this one.
  void append(const RoundPhase& o) {
    off.resize(o.off.size());
    on.resize(o.on.size());
    for (std::size_t i = 0; i < o.off.size(); ++i) {
      off[i].insert(off[i].end(), o.off[i].begin(), o.off[i].end());
      on[i].insert(on[i].end(), o.on[i].begin(), o.on[i].end());
    }
    rounds_off.insert(rounds_off.end(), o.rounds_off.begin(), o.rounds_off.end());
  }

  /// Multiply every sample by `f` (dist: op seconds to iteration seconds).
  void scale(double f) {
    for (auto* by_mat : {&off, &on})
      for (auto& v : *by_mat)
        for (double& t : v) t *= f;
    for (double& t : rounds_off) t *= f;
  }
};

constexpr int kCheckEvery = 16;  // rounds between sampled result checks
constexpr int kToggleEvery = 8;  // rounds per traced/untraced stretch
/// Serve throughput is the median over windows of this many seconds, so
/// that a few seconds of interference from outside the benchmark cannot
/// move it.
constexpr double kWindowSeconds = 0.5;

/// Windows of about kWindowSeconds (at least one) in `seconds`.
std::size_t window_count(double seconds) {
  return static_cast<std::size_t>(std::max(1L, std::lround(seconds / kWindowSeconds)));
}

/// Rounds of `op(i, round)` (which computes ys[i] and returns the input
/// index it used) until `seconds` pass. With `alternate`, stretches of
/// rounds run traced (library hooks and benchmark spans on) and untraced
/// in turn; otherwise every round counts as `tr.on` says. Before every
/// checked round ys is filled with NaN (untimed), so a run that leaves y
/// partly or wholly unwritten fails the check.
template <class Op>
RoundPhase run_rounds(std::span<const Mat> mats,
                      std::span<std::vector<double>> ys, double seconds,
                      bool alternate, const char* span_name, Tracer& tr,
                      Gate& gate, Op&& op) {
  const std::size_t n = mats.size();
  RoundPhase p;
  p.off.resize(n);
  p.on.resize(n);
  const bool was_on = tr.on;
  const double start = now(), end = start + seconds;
  std::vector<std::size_t> xi(n);
  auto poison = [ys] {
    for (auto& y : ys) std::fill(y.begin(), y.end(), kNaN);
  };
  int round = 0;
  for (; now() < end; ++round) {
    const bool on = alternate ? (round / kToggleEvery) % 2 == 1 : was_on;
    if (alternate) {
      observe::set_enabled(on);
      tr.on = on;
    }
    const bool checked = round % kCheckEvery == 0;
    if (checked) poison();
    double round_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Tracer::Scope span(tr, span_name, mats[i].id);
      const double t0 = now();
      xi[i] = op(i, round);
      const double dt = now() - t0;
      (on ? p.on : p.off)[i].push_back(dt);
      round_s += dt;
    }
    if (!on) p.rounds_off.push_back(round_s);
    if (checked)  // outside the timed part of the round
      for (std::size_t i = 0; i < n; ++i)
        gate.check(mats[i].refs[xi[i]], ys[i].data(), span_name + (" " + mats[i].name));
  }
  if (alternate) {
    observe::set_enabled(was_on);
    tr.on = was_on;
  }
  gate.attempt(static_cast<std::uint64_t>(round) * n);
  poison();
  for (std::size_t i = 0; i < n; ++i) {  // the final result of every matrix
    const std::size_t x_final = op(i, round);
    gate.attempt();
    gate.check(mats[i].refs[x_final], ys[i].data(),
               std::string("final ") + span_name + " " + mats[i].name);
  }
  return p;
}

/// Steady-state y = A·x through the prepared engines.
RoundPhase run_solve(std::span<const Mat> mats, std::span<const Selected> sel,
                     double seconds, bool alternate, Tracer& tr, Gate& gate) {
  std::vector<std::vector<double>> ys(mats.size());
  for (std::size_t i = 0; i < mats.size(); ++i) {
    ys[i].resize(static_cast<std::size_t>(mats[i].a.rows()));
    for (int k = 0; k < 5; ++k)  // warm-up
      sel[i].engine->run(mats[i].xs[0].data(), ys[i].data());
  }
  return run_rounds(mats, ys, seconds, alternate, "engine/spmv", tr, gate,
                    [&](std::size_t i, int round) -> std::size_t {
                      const std::size_t xi = static_cast<std::size_t>(round) % 2;
                      sel[i].engine->run(mats[i].xs[xi].data(), ys[i].data());
                      return xi;
                    });
}

// ---------------------------------------------------------------------------
// Serve phase: in-process Server, closed-loop ServeClients
// ---------------------------------------------------------------------------

struct ServeSample {
  double done = 0;  ///< completion time
  double rtt = 0, server = 0;
  int mat = 0;
  bool on = false;
};

struct ServePhase {
  double setup_s = 0;    ///< median over set-ups: Server::start + submits
  double prepare_s = 0;  ///< Σ server-side prepare seconds, last set-up
  std::vector<std::string> formats;
  std::vector<ServeSample> samples;
  /// Completed requests and served GFLOP per second, one per window.
  std::vector<double> rates, gflop_rates;
  std::vector<double> rss;  ///< peak resident MiB of each segment
  Json stats;
};

/// The request mix: half of all requests go to matrix 0 (the hot one),
/// the rest spread evenly over the others.
double mix_weight(std::size_t i, std::size_t n) {
  if (n == 1) return 1.0;
  return i == 0 ? 0.5 : 0.5 / static_cast<double>(n - 1);
}

/// `setups` segments, each a fresh Server::start + submit of every matrix
/// (timed as set-up) followed by seconds/setups of closed-loop requests
/// from two clients. With `alternate`, the library hooks and the
/// benchmark spans flip on and off every half second.
ServePhase run_serve(const std::vector<Mat>& mats, const Options& o,
                     double seconds, int setups, bool measured_selection,
                     bool alternate, Tracer& tr, Gate& gate) {
  constexpr int kClients = 2;
  constexpr double kToggleSeconds = 0.5;
  const std::size_t n = mats.size();
  ServePhase p;
  serve::ServerOptions so;  // 2 workers, single-threaded engines, batching
  so.prepare_measure = measured_selection;
  std::vector<std::uint64_t> fps(n);
  std::vector<double> setup_times;
  const bool was_on = tr.on;
  for (int r = 0; r < setups; ++r) {
    reset_peak_rss();
    so.socket_path = o.out_dir + "/lb" + std::to_string(::getpid()) + "-" +
                     std::to_string(r) + ".sock";
    ::unlink(so.socket_path.c_str());
    std::unique_ptr<serve::Server> srv;
    {
      Tracer::Scope span(tr, "serve/setup", r);
      const double t0 = now();
      srv = std::make_unique<serve::Server>(so);
      srv->start();
      serve::ServeClient c(so.socket_path);
      p.prepare_s = 0;
      p.formats.assign(n, "");
      for (std::size_t i = 0; i < n; ++i) {
        Tracer::Scope s(tr, "serve/submit", mats[i].id);
        const serve::SubmitReply rep = c.submit(mats[i].a);
        fps[i] = rep.fingerprint;
        p.formats[i] = rep.format_id;
        p.prepare_s += rep.prepare_seconds;
      }
      setup_times.push_back(now() - t0);
    }
    std::string served;
    for (const std::string& f : p.formats) served += " " + f;
    info("served formats, set-up " + std::to_string(r) + ":" + served);

    std::vector<std::vector<ServeSample>> samples(kClients);
    std::vector<Tracer> tracers(kClients);
    const double start = now(), end = start + seconds / setups;
    auto traced_at = [&](double t) {
      return alternate
                 ? static_cast<long>((t - start) / kToggleSeconds) % 2 == 1
                 : was_on;
    };
    auto client = [&](int k) {
      Xoshiro256 rng(mix(o.seed, 7000 + static_cast<std::uint64_t>(r * kClients + k)));
      Tracer& ktr = tracers[static_cast<std::size_t>(k)];
      std::unique_ptr<serve::ServeClient> c;
      try {
        c = std::make_unique<serve::ServeClient>(so.socket_path);
      } catch (const bspmv::error& e) {
        gate.attempt();
        gate.fail(std::string("serve connect: ") + e.what());
        return;
      }
      std::int64_t req = 0;
      for (double t0; (t0 = now()) < end; ++req) {
        // half of the requests go to matrix 0, the rest spread evenly
        const double u = rng.uniform();
        const std::size_t m =
            n == 1 || u < 0.5
                ? 0
                : 1 + std::min<std::size_t>(
                          n - 2, static_cast<std::size_t>(
                                     (u - 0.5) * 2 * static_cast<double>(n - 1)));
        const std::size_t xi = static_cast<std::size_t>(rng() % mats[m].xs.size());
        const bool on = traced_at(t0);
        ktr.on = on;
        Tracer::Scope span(ktr, "serve/request", k * 100000000LL + req);
        gate.attempt();
        serve::SpmvReply rep;
        try {
          rep = c->spmv(fps[m], mats[m].xs[xi]);
        } catch (const bspmv::io_error& e) {
          gate.fail(std::string("serve spmv: ") + e.what());
          break;  // the connection is gone
        } catch (const bspmv::error& e) {
          gate.fail(std::string("serve spmv: ") + e.what());
          continue;
        }
        const double rtt = now() - t0;
        if (rep.y.size() != mats[m].refs[xi].y.size()) {
          gate.fail("serve spmv: wrong result length");
          continue;
        }
        if (gate.check(mats[m].refs[xi], rep.y.data(), "serve " + mats[m].name))
          samples[static_cast<std::size_t>(k)].push_back(
              {t0 + rtt, rtt, rep.server_seconds, static_cast<int>(m), on});
      }
    };
    std::vector<std::thread> threads;
    for (int k = 0; k < kClients; ++k) threads.emplace_back(client, k);
    if (alternate) {  // flip the library hooks at every toggle boundary
      for (long seg = 1; start + static_cast<double>(seg) * kToggleSeconds < end; ++seg) {
        const double at = start + static_cast<double>(seg) * kToggleSeconds;
        std::this_thread::sleep_for(std::chrono::duration<double>(at - now()));
        observe::set_enabled(seg % 2 == 1);
      }
    }
    for (auto& t : threads) t.join();
    if (alternate) observe::set_enabled(was_on);
    const int parent = tr.open();
    const std::size_t windows = window_count(end - start);
    const double width = (end - start) / static_cast<double>(windows);
    std::vector<double> count(windows), flops(windows);
    for (int k = 0; k < kClients; ++k) {
      tr.merge(tracers[static_cast<std::size_t>(k)], parent);
      for (const ServeSample& s : samples[static_cast<std::size_t>(k)]) {
        p.samples.push_back(s);
        const auto w = static_cast<std::size_t>((s.done - start) / width);
        if (w >= windows) continue;
        count[w] += 1;
        flops[w] += mats[static_cast<std::size_t>(s.mat)].flops();
      }
    }
    for (std::size_t w = 0; w < windows; ++w) {
      p.rates.push_back(count[w] / width);
      p.gflop_rates.push_back(flops[w] / width / 1e9);
    }
    p.stats = srv->stats_json();
    p.rss.push_back(peak_rss_mib());
    srv->stop();
    srv.reset();
    ::unlink(so.socket_path.c_str());
    // Hand the freed engines back to the OS so that each segment's peak
    // resident set starts from the same floor.
    ::malloc_trim(0);
  }
  p.setup_s = median(setup_times);
  if (p.samples.empty()) throw std::runtime_error("serve: no request completed");
  return p;
}

// ---------------------------------------------------------------------------
// Dist phase: DistSpmv with 2 supervised ranks per matrix
// ---------------------------------------------------------------------------

struct DistPhase {
  double setup_s = 0;  ///< median over set-ups: Σ DistSpmv construction
  double spawn_s = 0;  ///< Σ construction seconds, last set-up
  RoundPhase ops;
  std::vector<double> rss;  ///< peak resident MiB of each segment
  // Worst rank (by in-rank time) per iteration, Σ over matrices.
  double iter = 0, wait = 0, local = 0, halo = 0, send = 0, recv = 0;
  double bytes = 0, msgs = 0, pred = 0;
};

/// `setups` segments, each a fresh DistSpmv per matrix (timed as set-up)
/// followed by seconds/setups of rounds. One dist operation is
/// run(x, y, kDistIterations) as one supervised round: scatter x,
/// kDistIterations halo exchange + SpMV steps inside the ranks (the traffic
/// of an iterative solver), gather y = A·x. Rounds alternate the two seeded
/// x; the phase's op times are per iteration (op seconds / kDistIterations).
DistPhase run_dist(const std::vector<Mat>& mats, const MachineProfile& prof,
                   double seconds, int setups, bool alternate, Tracer& tr,
                   Gate& gate) {
  const std::size_t n = mats.size();
  DistPhase p;
  dist::DistOptions opt;  // overlapped halo exchange by default
  opt.ranks = 2;
  opt.threads_per_rank = 1;
  opt.supervise.enabled = true;
  opt.supervise.checkpoint_interval = kDistIterations;  // one round per run
  std::vector<std::unique_ptr<dist::DistSpmv>> ds;
  std::vector<double> setup_times;
  std::vector<std::vector<double>> ys(n);
  std::vector<std::vector<dist::RankStats>> acc(n);
  for (int r = 0; r < setups; ++r) {
    ds.clear();  // shut down the previous segment's ranks (untimed)
    reset_peak_rss();
    {
      Tracer::Scope span(tr, "dist/setup", r);
      double total = 0;
      for (const Mat& m : mats) {
        Tracer::Scope s(tr, "dist/spawn", m.id);
        const double t0 = now();
        ds.push_back(std::make_unique<dist::DistSpmv>(m.a, opt));
        total += now() - t0;
      }
      setup_times.push_back(total);
      p.spawn_s = total;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ys[i].resize(static_cast<std::size_t>(mats[i].a.rows()));
      ds[i]->run(mats[i].xs[0].data(), ys[i].data(), kDistIterations);  // warm-up
    }
    RoundPhase seg = run_rounds(
        mats, ys, seconds / setups, alternate, "dist/spmv", tr, gate,
        [&](std::size_t i, int round) -> std::size_t {
          const std::size_t xi = static_cast<std::size_t>(round) % 2;
          ds[i]->run(mats[i].xs[xi].data(), ys[i].data(), kDistIterations);
          const auto& st = ds[i]->last_stats();
          acc[i].resize(std::max(acc[i].size(), st.size()));
          for (std::size_t k = 0; k < st.size(); ++k) {
            dist::RankStats& a = acc[i][k];
            a.iterations += st[k].iterations;
            a.send_seconds += st[k].send_seconds;
            a.recv_seconds += st[k].recv_seconds;
            a.wait_seconds += st[k].wait_seconds;
            a.local_seconds += st[k].local_seconds;
            a.halo_seconds += st[k].halo_seconds;
            a.total_seconds += st[k].total_seconds;
            a.bytes_sent += st[k].bytes_sent;
            a.msgs_sent += st[k].msgs_sent;
          }
          return xi;
        });
    seg.scale(1.0 / kDistIterations);
    std::string line;
    for (std::size_t i = 0; i < n; ++i)
      if (!seg.off[i].empty())
        line += " " + mats[i].name + "=" + num(median(seg.off[i]) * 1e3);
    info("segment " + std::to_string(r) + ": set-up " + num(setup_times.back()) +
         " s, median ms" + line);
    p.ops.append(seg);
    p.rss.push_back(peak_rss_mib());
  }
  p.setup_s = median(setup_times);
  for (std::size_t i = 0; i < n; ++i) {
    const dist::RankStats* worst = nullptr;
    double bytes = 0, msgs = 0;
    for (const auto& s : acc[i]) {
      if (!worst || s.total_seconds > worst->total_seconds) worst = &s;
      bytes += static_cast<double>(s.bytes_sent);
      msgs += static_cast<double>(s.msgs_sent);
    }
    if (!worst || worst->iterations == 0) continue;
    p.pred += predict_distributed(prof, ds[i]->rank_costs(), ds[i]->mode());
    const double it = worst->iterations;
    p.iter += worst->total_seconds / it;
    p.wait += worst->wait_seconds / it;
    p.local += worst->local_seconds / it;
    p.halo += worst->halo_seconds / it;
    p.send += worst->send_seconds / it;
    p.recv += worst->recv_seconds / it;
    p.bytes += bytes / it;
    p.msgs += msgs / it;
    if (ds[i]->outcome() != dist::DistOutcome::kClean)
      infof("dist %s: supervision outcome %s", mats[i].name.c_str(),
            dist::dist_outcome_name(ds[i]->outcome()));
  }
  ds.clear();  // shut down and reap every rank
  return p;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Σ median per-op seconds over the matrices that have samples.
double sum_medians(const std::vector<std::vector<double>>& v) {
  double s = 0;
  for (const auto& e : v)
    if (!e.empty()) s += median(e);
  return s;
}

double sum_flops(const std::vector<Mat>& mats) {
  double s = 0;
  for (const Mat& m : mats) s += m.flops();
  return s;
}

void latency_info(const std::vector<double>& all) {
  const std::size_t beyond =
      all.size() - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(all.size())));
  infof("latency samples %zu (%zu beyond p99): p90 %.4f p95 %.4f p99 %.4f ms",
        all.size(), beyond, quantile(all, 0.9) * 1e3,
        quantile(all, 0.95) * 1e3, quantile(all, 0.99) * 1e3);
}

void describe_inputs(const std::vector<Mat>& mats, const MachineProfile& prof) {
  const CacheInfo ci = detect_cache_info();
  infof("caches: L2 %.1f MiB, LLC %.1f MiB (%s); profile bandwidth %.2f GB/s",
        static_cast<double>(ci.l2_bytes) / kMiB,
        static_cast<double>(ci.llc_bytes) / kMiB,
        ci.detected ? "detected" : "fallback", prof.bandwidth_bps / 1e9);
  for (const Mat& m : mats)
    infof("matrix #%d %s: %d rows, %zu nnz, CSR working set %.2f MiB", m.id,
          m.name.c_str(), static_cast<int>(m.a.rows()), m.a.nnz(),
          static_cast<double>(m.a.working_set_bytes()) / kMiB);
}

void describe_selection(const std::vector<Mat>& mats,
                        const std::vector<Selected>& sel) {
  for (std::size_t i = 0; i < mats.size(); ++i) {
    const AnyFormat<double>& f = sel[i].engine->format();
    infof("selected #%d %s: %s (predicted %.4f ms), working set %.2f MiB",
          mats[i].id, mats[i].name.c_str(), f.candidate().id().c_str(),
          sel[i].ranked.front().predicted_seconds * 1e3,
          static_cast<double>(f.working_set_bytes()) / kMiB);
  }
}

std::vector<Metric> end_to_end(const Options& o, const std::vector<Mat>& mats,
                               const MachineProfile& prof, Tracer& tr,
                               Gate& gate) {
  double setup = 0, round = 0;
  std::vector<double> rss;
  if (o.workload == "fem_blocked" || o.workload == "graph_irregular") {
    // kSetupReps segments. In each, every matrix gets a fresh selection +
    // prepare (timed as set-up), and then the matrices take turns in short
    // bursts of SpMVs, each alone and warmed up. Other tenants of the host
    // bring slow periods of seconds to minutes, so every matrix is sampled
    // all through the run, not in a few moments of it.
    const std::size_t n = mats.size();
    std::vector<Selected> sel(n);
    std::vector<std::vector<double>> t(n);
    std::vector<double> setups;
    const double burst =
        o.seconds / static_cast<double>(kSetupReps * kBurstsPerSegment * n);
    for (int r = 0; r < kSetupReps; ++r) {
      reset_peak_rss();
      double setup_r = 0;
      for (std::size_t i = 0; i < n; ++i)
        setup_r += select_and_prepare(tr, mats[i], prof, solve_threads(), sel[i]);
      std::vector<std::vector<double>> seg(n);
      for (int b = 0; b < kBurstsPerSegment; ++b)
        for (std::size_t i = 0; i < n; ++i) {
          const RoundPhase p = run_solve({&mats[i], 1}, {&sel[i], 1}, burst, false, tr, gate);
          seg[i].insert(seg[i].end(), p.off[0].begin(), p.off[0].end());
        }
      std::string line;
      for (std::size_t i = 0; i < n; ++i) {
        line += " " + mats[i].name + "=" + num(median(seg[i]) * 1e3);
        t[i].insert(t[i].end(), seg[i].begin(), seg[i].end());
      }
      setups.push_back(setup_r);
      rss.push_back(peak_rss_mib());
      info("segment " + std::to_string(r) + ": set-up " + num(setup_r) +
           " s, median ms" + line);
    }
    setup = median(setups);
    describe_selection(mats, sel);
    round = sum_medians(t);
  } else if (o.workload == "serve_mixed") {
    const ServePhase p = run_serve(mats, o, o.seconds, kSetupReps, true, false, tr, gate);
    std::vector<double> lat;
    for (const ServeSample& s : p.samples) lat.push_back(s.rtt);
    latency_info(lat);
    return {{"spmv_gflops", median(p.gflop_rates), "GFLOP/s"},
            {"setup_s", p.setup_s, "s"},
            {"peak_rss_mib", median(p.rss), "MiB"},
            {"req_per_s", median(p.rates), "1/s"},
            {"latency_p50_ms", median(lat) * 1e3, "ms"}};
  } else {
    const DistPhase p = run_dist(mats, prof, o.seconds, kDistSetupReps, false, tr, gate);
    setup = p.setup_s;
    rss = p.rss;
    latency_info(p.ops.rounds_off);
    round = sum_medians(p.ops.off);
  }
  return {{"spmv_gflops", sum_flops(mats) / round / 1e9, "GFLOP/s"},
          {"setup_s", setup, "s"},
          {"peak_rss_mib", median(rss), "MiB"}};
}

/// Isolated SpmvEngine::run seconds of each matrix in the format the
/// server chose for it, weighted by the request mix.
double served_kernel_seconds(const std::vector<Mat>& mats,
                             const std::vector<std::string>& formats) {
  double s = 0;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    Candidate c;  // scalar CSR unless the served id names another candidate
    for (const Candidate& k : model_candidates(true))
      if (k.id() == formats[i]) c = k;
    const auto eng = SpmvEngine<double>::prepare(mats[i].a, c, 0);
    std::vector<double> y(static_cast<std::size_t>(mats[i].a.rows()));
    const double* x = mats[i].xs[0].data();
    s += mix_weight(i, mats.size()) *
         interleaved_medians({[&] { eng.run(x, y.data()); }}, 0.1)[0];
  }
  return s;
}

std::vector<Metric> per_layer(const Options& o, const std::vector<Mat>& mats,
                              const MachineProfile& prof, Tracer& tr,
                              Gate& gate) {
  const int threads = solve_threads();
  const double side = std::min(1.0, o.seconds / 4);  // bypassed layers
  std::vector<Selected> sel;
  const LadderSums L = run_ladder(tr, mats, prof, threads, gate, sel);
  describe_selection(mats, sel);

  double overhead = 0;
  std::optional<ServePhase> sp;
  std::optional<DistPhase> dp;
  if (o.workload == "serve_mixed") {
    sp = run_serve(mats, o, o.seconds, 1, true, true, tr, gate);
    std::vector<double> off, on;
    for (const ServeSample& s : sp->samples) (s.on ? on : off).push_back(s.rtt);
    overhead = median(on) / median(off) - 1;
    dp = run_dist(mats, prof, side, 1, false, tr, gate);
  } else if (o.workload == "dist_halo") {
    dp = run_dist(mats, prof, o.seconds, 1, true, tr, gate);
    overhead = sum_medians(dp->ops.on) / sum_medians(dp->ops.off) - 1;
    sp = run_serve(mats, o, side, 1, false, false, tr, gate);
  } else {
    const RoundPhase p = run_solve(mats, sel, o.seconds, true, tr, gate);
    overhead = sum_medians(p.on) / sum_medians(p.off) - 1;
    sp = run_serve(mats, o, side, 1, false, false, tr, gate);
    dp = run_dist(mats, prof, side, 1, false, tr, gate);
  }
  infof("serve pass: %s selection, %zu requests",
        o.workload == "serve_mixed" ? "measured" : "first-candidate",
        sp->samples.size());

  std::vector<double> srv, wire;
  for (const ServeSample& s : sp->samples)
    if (s.on) {
      srv.push_back(s.server);
      wire.push_back(s.rtt - s.server);
    }
  const Json& req = sp->stats.at("requests");
  const Json& cache = sp->stats.at("cache");
  const double rounds = req.at("batch_rounds").as_number();
  const double hits = cache.at("hits").as_number();
  const double misses = cache.at("misses").as_number();
  const double server_p50 = median(srv);
  const double T = threads;

  double dist_op = 0, single = 0;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    std::vector<double> v = dp->ops.on[i];
    v.insert(v.end(), dp->ops.off[i].begin(), dp->ops.off[i].end());
    dist_op += median(v);
    single += L.t_par_by_mat[i];
  }

  return {
      {"core.rank_s", L.rank_s, "s"},
      {"core.prepare_s", L.prepare_s, "s"},
      {"core.candidates_ranked", L.ranked, "count"},
      {"core.model_ratio", L.pred_overlap / L.t_any, "1"},
      {"core.selection_regret", L.t_regret_sel / L.t_regret_best, "1"},
      {"core.engine_overhead_frac", L.t_eng0 / L.t_any - 1, "1"},
      {"formats.convert_s", L.convert_s, "s"},
      {"formats.ws_mib", L.ws_sel / kMiB, "MiB"},
      {"formats.ws_over_csr", L.ws_sel / L.ws_csr, "1"},
      {"kernels.serial_gflops", L.flops / L.t_any / 1e9, "GFLOP/s"},
      {"kernels.achieved_gbps", L.ws_sel / L.t_any / 1e9, "GB/s"},
      {"kernels.mem_ratio", L.pred_mem / L.t_any, "1"},
      {"parallel.threaded_gflops", L.flops / L.t_par / 1e9, "GFLOP/s"},
      {"parallel.speedup", L.t_one / L.t_par, "1"},
      {"parallel.efficiency", L.t_one / L.t_par / T, "1"},
      {"parallel.model_ratio", L.pred_par / L.t_par, "1"},
      {"parallel.imbalance", L.busy_mean > 0 ? L.busy_max / L.busy_mean : 1.0, "1"},
      {"serve.server_p50_ms", server_p50 * 1e3, "ms"},
      {"serve.server_p99_ms", quantile(srv, 0.99) * 1e3, "ms"},
      {"serve.wire_p50_ms", median(wire) * 1e3, "ms"},
      {"serve.batch_mean", rounds > 0 ? req.at("batched_spmvs").as_number() / rounds : 1.0, "count"},
      {"serve.kernel_share", served_kernel_seconds(mats, sp->formats) / server_p50, "1"},
      {"serve.cache_hit_ratio", hits / std::max(1.0, hits + misses), "1"},
      {"serve.shed", sp->stats.at("shed").as_number(), "count"},
      {"serve.retries", req.at("retries").as_number(), "count"},
      {"serve.timeouts", req.at("timeouts").as_number(), "count"},
      {"serve.prepare_s", sp->prepare_s, "s"},
      {"dist.spawn_s", dp->spawn_s, "s"},
      {"dist.iter_ms", dp->iter * 1e3, "ms"},
      {"dist.wait_ms", dp->wait * 1e3, "ms"},
      {"dist.local_ms", dp->local * 1e3, "ms"},
      {"dist.halo_ms", dp->halo * 1e3, "ms"},
      {"dist.send_ms", dp->send * 1e3, "ms"},
      {"dist.recv_ms", dp->recv * 1e3, "ms"},
      {"dist.bytes_per_iter", dp->bytes, "B"},
      {"dist.msgs_per_iter", dp->msgs, "count"},
      {"dist.model_ratio", dp->pred / dp->iter, "1"},
      {"dist.vs_single_node", dist_op / single, "1"},
      {"observe.overhead_frac", overhead, "1"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return 2;
  }
  try {
    const double t_start = now();
    observe::set_enabled(o.trace);
    Tracer tr;
    tr.on = o.trace;
    Gate gate(o.corrupt);
    infof("workload %s seed %llu seconds %s trace %d scale %s threads %d",
          o.workload.c_str(), static_cast<unsigned long long>(o.seed),
          num(o.seconds).c_str(), o.trace ? 1 : 0, suite_scale_name(o.scale),
          solve_threads());
    const MachineProfile prof = load_profile(o);
    const std::vector<Mat> mats = build_matrices(o);
    describe_inputs(mats, prof);
    if (o.trace || o.workload == "fem_blocked" || o.workload == "graph_irregular")
      warm_up_threads(mats[0].a, mats[0].xs[0].data(), solve_threads());
    const std::vector<Metric> metrics = o.trace
                                            ? per_layer(o, mats, prof, tr, gate)
                                            : end_to_end(o, mats, prof, tr, gate);
    Json result;
    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value))
        throw std::runtime_error("metric " + m.name + " is not finite");
      result["metrics"][m.name]["value"] = m.value;
      result["metrics"][m.name]["unit"] = m.unit;
    }
    if (o.trace) {
      const std::string path = o.out_dir + "/trace-" + o.workload + "-" +
                               std::to_string(o.seed) + ".json";
      write_trace(path, tr, t_start, metrics);
      infof("trace: %zu spans written to %s", tr.spans.size(), path.c_str());
    }
    const bool correct = gate.failed() == 0;
    infof("correctness: %llu checked, %llu failed of %llu attempted (failed_ratio %s)",
          static_cast<unsigned long long>(gate.checked()),
          static_cast<unsigned long long>(gate.failed()),
          static_cast<unsigned long long>(gate.attempted()),
          num(static_cast<double>(gate.failed()) /
              static_cast<double>(std::max<std::uint64_t>(1, gate.attempted())))
              .c_str());
    if (!correct) info("first failure: " + gate.first_failure());
    result["correct"] = correct;
    result["attempted"] = gate.attempted();
    result["failed"] = gate.failed();
    std::printf("%s\n", result.dump(-1).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "layerbench: %s\n", e.what());
    return 1;
  }
}
