#include "src/core/executor.hpp"

#include <new>

#include "src/core/engine.hpp"
#include "src/kernels/spmv.hpp"
#include "src/observe/observe.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

template <class V>
AnyFormat<V> AnyFormat<V>::convert(const Csr<V>& a, const Candidate& c) {
  BSPMV_OBS_SPAN("convert");
  BSPMV_OBS_SPAN(format_name(c.kind));
  AnyFormat f;
  f.c_ = c;
  // Register-driven dispatch: the one format whose FormatOps kind matches
  // the candidate materialises into the variant.
  for_each_format<V>([&](auto tag) {
    using F = typename decltype(tag)::type;
    if (FormatOps<F>::kKind == c.kind) f.m_ = FormatOps<F>::convert(a, c);
  });
  BSPMV_CHECK_MSG(!std::holds_alternative<std::monostate>(f.m_),
                  "AnyFormat: format kind not in registry");
  return f;
}

template <class V>
index_t AnyFormat<V>::rows() const {
  return visit([](const auto& m) { return m.rows(); });
}

template <class V>
index_t AnyFormat<V>::cols() const {
  return visit([](const auto& m) { return m.cols(); });
}

template <class V>
std::size_t AnyFormat<V>::working_set_bytes() const {
  return visit([](const auto& m) {
    return FormatOps<std::decay_t<decltype(m)>>::working_set_bytes(m);
  });
}

template <class V>
void AnyFormat<V>::validate() const {
  // Not via visit(): an empty AnyFormat is a validation failure here, not
  // a usage error.
  std::visit(
      [](const auto& m) {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>,
                                     std::monostate>) {
          throw validation_error("AnyFormat: empty");
        } else {
          FormatOps<std::decay_t<decltype(m)>>::validate(m);
        }
      },
      m_);
}

template <class V>
void AnyFormat<V>::run(const V* x, V* y) const {
  const Impl impl = c_.impl;
  visit([&](const auto& m) { spmv(m, x, y, impl); });
}

template <class V>
void AnyFormat<V>::run_multi(const V* X, V* Y, int k) const {
  const Impl impl = c_.impl;
  visit([&](const auto& m) { spmm(m, X, Y, k, impl); });
}

template <class V>
std::optional<AnyFormat<V>> try_convert(const Csr<V>& a, const Candidate& c,
                                        std::string* reason) {
  try {
    AnyFormat<V> f = AnyFormat<V>::convert(a, c);
    f.validate();
    return f;
  } catch (const error& e) {
    if (reason) *reason = e.what();
  } catch (const std::bad_alloc&) {
    if (reason) *reason = "allocation failed";
  }
  BSPMV_OBS_COUNT("prepare.convert_failures", 1);
  return std::nullopt;
}

template <class V>
PreparedExecutor<V> try_prepare(const Csr<V>& a,
                                const std::vector<Candidate>& ranked) {
  BSPMV_OBS_SPAN("prepare");
  // Garbage in, typed error out: no candidate can be correct if the
  // source matrix itself is corrupt.
  bspmv::validate(a);

  PreparedExecutor<V> out;
  for (const Candidate& c : ranked) {
    BSPMV_OBS_COUNT("prepare.candidates_tried", 1);
    std::string reason;
    if (auto f = try_convert(a, c, &reason)) {
      out.format = std::move(*f);
      return out;
    }
    out.failures.push_back(PrepareFailure{c, std::move(reason)});
  }
  BSPMV_OBS_COUNT("prepare.fallback", 1);

  // Degenerate 1×1 case: scalar CSR. The convert shares the
  // already-validated input's arrays, so it cannot fail.
  Candidate csr;
  csr.kind = FormatKind::kCsr;
  csr.impl = Impl::kScalar;
  out.format = AnyFormat<V>::convert(a, csr);
  out.fallback = true;
  return out;
}

// The measurement loops live in SpmvEngine (prepare-once/run-many); these
// helpers are the stable thin entry points over it.

template <class V>
std::vector<MeasuredCandidate> measure_candidates(
    const Csr<V>& a, const std::vector<Candidate>& candidates,
    const MeasureOptions& opt) {
  std::vector<MeasuredCandidate> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    const auto engine = SpmvEngine<V>::prepare(a, c);
    out.push_back(MeasuredCandidate{c, engine.measure(opt).min});
  }
  return out;
}

template <class V>
double measure_threaded_seconds(const Csr<V>& a, const Candidate& c,
                                int threads, const MeasureOptions& opt,
                                ExecBackend backend) {
  // threads == 0 means "plain single-threaded path" to the engine; this
  // entry point is explicitly threaded, so keep rejecting it.
  BSPMV_CHECK_MSG(threads >= 1, "thread count must be >= 1");
  return SpmvEngine<V>::prepare(a, c, threads, backend).measure(opt).min;
}

template <class V>
std::vector<Samples> measure_threaded_multi(const Csr<V>& a,
                                            const Candidate& c,
                                            const std::vector<int>& threads,
                                            const MeasureOptions& opt,
                                            ExecBackend backend) {
  // Convert once and re-plan per thread count (conversion dominates a
  // sweep; Fig. 2 measures 1/2/4 cores). Building the first plan eagerly
  // keeps the "format not parallelised" error even for an empty sweep.
  for (int t : threads) BSPMV_CHECK_MSG(t >= 1, "thread count must be >= 1");
  SpmvEngine<V> engine =
      SpmvEngine<V>::prepare(a, c, threads.empty() ? 1 : threads.front(),
                             backend);
  std::vector<Samples> out;
  out.reserve(threads.size());
  for (int t : threads) {
    engine.set_threads(t);
    out.push_back(engine.measure(opt));
  }
  return out;
}

#define BSPMV_INST(V)                                                       \
  template class AnyFormat<V>;                                              \
  template std::optional<AnyFormat<V>> try_convert(                         \
      const Csr<V>&, const Candidate&, std::string*);                       \
  template PreparedExecutor<V> try_prepare(const Csr<V>&,                   \
                                           const std::vector<Candidate>&);  \
  template std::vector<MeasuredCandidate> measure_candidates(               \
      const Csr<V>&, const std::vector<Candidate>&, const MeasureOptions&); \
  template double measure_threaded_seconds(const Csr<V>&, const Candidate&, \
                                           int, const MeasureOptions&,      \
                                           ExecBackend);                    \
  template std::vector<Samples> measure_threaded_multi(                     \
      const Csr<V>&, const Candidate&, const std::vector<int>&,             \
      const MeasureOptions&, ExecBackend);
BSPMV_INST(float)
BSPMV_INST(double)
#undef BSPMV_INST

}  // namespace bspmv
