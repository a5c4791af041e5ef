// Candidate materialisation and empirical measurement.
//
// AnyFormat converts a CSR matrix into any candidate's storage format and
// runs its kernel; the measure_* helpers time candidates the way the
// paper does (repeated consecutive SpMV operations on random input
// vectors) to produce the "real execution time" that Figs. 3/4 and
// Tables II–IV compare against.
//
// Conversion, the prepare path and the measurement loops are
// instrumented (src/observe/observe.hpp): spans "convert/<fmt>",
// "prepare", "measure/{spmv,threaded}" and the prepare.* counters feed
// the RunReport telemetry described in docs/observability.md.
#pragma once

#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/core/candidates.hpp"
#include "src/formats/registry.hpp"
#include "src/parallel/backend.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "src/util/timing.hpp"

namespace bspmv {

template <class V>
class AnyFormat {
 public:
  /// Convert `a` into the candidate's format (throws for unsupported
  /// combinations).
  static AnyFormat convert(const Csr<V>& a, const Candidate& c);

  const Candidate& candidate() const { return c_; }
  index_t rows() const;
  index_t cols() const;
  std::size_t working_set_bytes() const;

  /// Deep structural check of the materialised format; throws
  /// validation_error if any invariant is broken.
  void validate() const;

  /// y = A·x with the candidate's kernel implementation.
  void run(const V* x, V* y) const;

  /// Y = A·X for k row-major right-hand sides (X cols×k, Y rows×k) with
  /// the candidate's kernel implementation. k == 1 is the single-vector
  /// path.
  void run_multi(const V* X, V* Y, int k) const;

  /// Visit the materialised format: fn is invoked with the concrete
  /// format object (never monostate — an empty AnyFormat throws
  /// invalid_argument_error) and its result is returned.
  template <class Fn>
  decltype(auto) visit(Fn&& fn) const {
    using R = decltype(fn(std::get<Csr<V>>(m_)));
    return std::visit(
        [&](const auto& m) -> R {
          if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                       std::monostate>) {
            throw invalid_argument_error("AnyFormat: empty");
          } else {
            return fn(m);
          }
        },
        m_);
  }

 private:
  Candidate c_;
  typename BuiltinFormats<V>::variant m_;
};

// ----------------------------------------------------------------------
// Fault-tolerant preparation
// ----------------------------------------------------------------------

/// Why one candidate could not be materialised.
struct PrepareFailure {
  Candidate candidate;
  std::string reason;
};

/// A guaranteed-runnable executor plus the audit trail of every candidate
/// that had to be skipped on the way to it.
template <class V>
struct PreparedExecutor {
  AnyFormat<V> format;
  /// True when every requested candidate failed and the executor degraded
  /// to the paper's 1×1 case: plain scalar CSR.
  bool fallback = false;
  std::vector<PrepareFailure> failures;
};

/// Convert + validate one candidate, capturing any bspmv::error (or
/// allocation failure) instead of throwing. On failure returns nullopt
/// and, when `reason` is non-null, stores the failure message.
template <class V>
std::optional<AnyFormat<V>> try_convert(const Csr<V>& a, const Candidate& c,
                                        std::string* reason = nullptr);

/// Walk `ranked` in order and return the first candidate that converts and
/// validates; every failure is recorded and skipped. If all candidates
/// fail, degrades to scalar CSR — which cannot fail for a valid input, so
/// a correct executor is always returned. The input matrix itself is
/// validated up front; a corrupt input throws validation_error (there is
/// no correct executor for garbage).
template <class V>
PreparedExecutor<V> try_prepare(const Csr<V>& a,
                                const std::vector<Candidate>& ranked);

/// How SpmvEngine::measure times a candidate: one Measurement
/// (src/util/timing.hpp) of `reps` batches of `iterations` consecutive
/// SpMVs after `warmup` untimed ones, 40 timed SpMVs by default. The
/// paper's number is the minimum batch; compare() ranks two candidates by
/// their medians against the larger IQR.
struct MeasureOptions {
  /// SpMVs per timed batch. The paper ran 100 consecutive operations; the
  /// default stays lower so test/bench sweeps finish quickly, and
  /// mtx_tool exposes --iterations/--reps so the paper's setting is
  /// reachable without recompiling.
  int iterations = 20;
  int reps = 2;               ///< timed batches
  int warmup = 1;             ///< untimed SpMVs before the first batch
  std::uint64_t seed = 1234;  ///< input-vector RNG seed

  /// Optional cooperative deadline/cancellation/stall control, polled at
  /// iteration edges (and granule boundaries in threaded plans). The
  /// engine spawns a Watchdog for it when it carries a deadline or stall
  /// timeout. Non-owning; must outlive the measurement. nullptr (the
  /// default) keeps every hot loop exactly as fast as before.
  RunControl* control = nullptr;

  /// Opt-in numeric health guard: scan x before and y after the run for
  /// NaN/Inf and verify the per-batch output fingerprint stays bitwise
  /// identical (deterministic kernels on a fixed input must reproduce);
  /// violations throw bspmv::numerical_error. Scans run outside the
  /// timed batches.
  bool check_numerics = false;
};

struct MeasuredCandidate {
  Candidate candidate;
  double seconds = 0.0;
};

/// Convert + measure every candidate (formats are dropped after timing so
/// peak memory stays ~2× the matrix).
template <class V>
std::vector<MeasuredCandidate> measure_candidates(
    const Csr<V>& a, const std::vector<Candidate>& candidates,
    const MeasureOptions& opt = {});

/// Multithreaded real time (only CSR/BCSR/BCSD and the decomposed
/// variants, matching §V-A), under either schedule policy.
template <class V>
double measure_threaded_seconds(const Csr<V>& a, const Candidate& c,
                                int threads, const MeasureOptions& opt = {},
                                ExecBackend backend = ExecBackend::kBulk);

/// Measure one candidate at several thread counts, converting the matrix
/// once (conversion dominates a sweep; Fig. 2 measures 1/2/4 cores).
/// Returns each count's samples in the same order as `threads`.
template <class V>
std::vector<Samples> measure_threaded_multi(const Csr<V>& a,
                                            const Candidate& c,
                                            const std::vector<int>& threads,
                                            const MeasureOptions& opt,
                                            ExecBackend backend);

#define BSPMV_DECL(V)                                                      \
  extern template class AnyFormat<V>;                                      \
  extern template std::optional<AnyFormat<V>> try_convert(                 \
      const Csr<V>&, const Candidate&, std::string*);                      \
  extern template PreparedExecutor<V> try_prepare(                         \
      const Csr<V>&, const std::vector<Candidate>&);                       \
  extern template std::vector<MeasuredCandidate> measure_candidates(       \
      const Csr<V>&, const std::vector<Candidate>&, const MeasureOptions&); \
  extern template double measure_threaded_seconds(                         \
      const Csr<V>&, const Candidate&, int, const MeasureOptions&,         \
      ExecBackend);                                                        \
  extern template std::vector<Samples> measure_threaded_multi(             \
      const Csr<V>&, const Candidate&, const std::vector<int>&,            \
      const MeasureOptions&, ExecBackend);
BSPMV_DECL(float)
BSPMV_DECL(double)
#undef BSPMV_DECL

}  // namespace bspmv
