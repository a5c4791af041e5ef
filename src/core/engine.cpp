#include "src/core/engine.hpp"

#include "src/parallel/parallel_spmv.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

template <class V>
template <class F>
struct SpmvEngine<V>::TypedPlan final : SpmvEngine<V>::Plan {
  TypedPlan(const F& m, int threads, ExecBackend schedule)
      : driver(m, threads, schedule) {}
  void run(const V* x, V* y, Impl impl,
           RunControl* control) const override {
    driver.run(x, y, impl, control);
  }
  void run_multi(const V* X, V* Y, int k, Impl impl,
                 RunControl* control) const override {
    driver.run_multi(X, Y, k, impl, control);
  }
  void warm_up(V* x, V* y) const override { driver.warm_up(x, y); }
  ThreadedSpmv<F> driver;
};

template <class V>
SpmvEngine<V> SpmvEngine<V>::prepare(const Csr<V>& a,
                                     const std::vector<Candidate>& ranked,
                                     int threads, ExecBackend backend) {
  SpmvEngine e;
  e.owned_ =
      std::make_unique<PreparedExecutor<V>>(try_prepare(a, ranked));
  e.fmt_ = &e.owned_->format;
  e.threads_ = threads;
  e.backend_ = backend;
  e.build_plan();
  return e;
}

template <class V>
SpmvEngine<V> SpmvEngine<V>::prepare(const Csr<V>& a, const Candidate& c,
                                     int threads, ExecBackend backend) {
  SpmvEngine e;
  e.owned_ = std::make_unique<PreparedExecutor<V>>();
  e.owned_->format = AnyFormat<V>::convert(a, c);
  e.fmt_ = &e.owned_->format;
  e.threads_ = threads;
  e.backend_ = backend;
  e.build_plan();
  return e;
}

template <class V>
SpmvEngine<V> SpmvEngine<V>::borrow(const AnyFormat<V>& f, int threads,
                                    ExecBackend backend) {
  SpmvEngine e;
  e.fmt_ = &f;
  e.threads_ = threads;
  e.backend_ = backend;
  e.build_plan();
  return e;
}

template <class V>
void SpmvEngine<V>::set_threads(int threads) {
  if (threads == threads_ && (plan_ || threads == 0)) return;
  // Strong guarantee: if the new plan cannot be built (e.g. a
  // CSR-fallback engine replanned onto a non-parallel format), the
  // engine must stay on its previous, working plan.
  const int prev = threads_;
  threads_ = threads;
  try {
    build_plan();
  } catch (...) {
    threads_ = prev;
    try {
      build_plan();
    } catch (...) {
      // The previous configuration built once, so rebuilding it cannot
      // throw; guard anyway so set_threads never terminates.
    }
    throw;
  }
}

template <class V>
void SpmvEngine<V>::set_backend(ExecBackend backend) {
  if (backend == backend_ && (plan_ || threads_ == 0)) return;
  const ExecBackend prev = backend_;
  backend_ = backend;
  try {
    build_plan();
  } catch (...) {
    backend_ = prev;
    try {
      build_plan();
    } catch (...) {
      // The previous configuration built once, so rebuilding it cannot
      // throw; guard anyway so set_backend never terminates.
    }
    throw;
  }
}

template <class V>
void SpmvEngine<V>::build_plan() {
  plan_.reset();
  if (threads_ == 0) return;
  plan_ = fmt_->visit([&](const auto& m) -> std::unique_ptr<Plan> {
    using F = std::decay_t<decltype(m)>;
    if constexpr (FormatOps<F>::kParallel) {
      return std::make_unique<TypedPlan<F>>(m, threads_, backend_);
    } else {
      throw invalid_argument_error(
          "SpmvEngine: format not parallelised (per §V-A)");
    }
  });
}

template <class V>
void SpmvEngine<V>::run(const V* x, V* y) const {
  if (plan_)
    plan_->run(x, y, fmt_->candidate().impl, nullptr);
  else
    fmt_->run(x, y);
}

template <class V>
void SpmvEngine<V>::run(const V* x, V* y, RunControl* control,
                        bool check_numerics) const {
  if (check_numerics)
    check_finite("run: input vector x", x,
                 static_cast<std::size_t>(fmt_->cols()));
  if (control) control->check();
  if (plan_)
    plan_->run(x, y, fmt_->candidate().impl, control);
  else
    fmt_->run(x, y);
  if (control) control->throw_if_aborted();
  if (check_numerics)
    check_finite("run: output vector y", y,
                 static_cast<std::size_t>(fmt_->rows()));
}

template <class V>
void SpmvEngine<V>::run_multi(const V* X, V* Y, int k) const {
  if (plan_)
    plan_->run_multi(X, Y, k, fmt_->candidate().impl, nullptr);
  else
    fmt_->run_multi(X, Y, k);
}

template <class V>
void SpmvEngine<V>::run_multi(const V* X, V* Y, int k, RunControl* control,
                              bool check_numerics) const {
  if (check_numerics)
    check_finite("run_multi: input block X", X,
                 static_cast<std::size_t>(fmt_->cols()) *
                     static_cast<std::size_t>(k));
  if (control) control->check();
  if (plan_)
    plan_->run_multi(X, Y, k, fmt_->candidate().impl, control);
  else
    fmt_->run_multi(X, Y, k);
  if (control) control->throw_if_aborted();
  if (check_numerics)
    check_finite("run_multi: output block Y", Y,
                 static_cast<std::size_t>(fmt_->rows()) *
                     static_cast<std::size_t>(k));
}

template <class V>
void SpmvEngine<V>::warm_up(V* x, V* y) const {
  if (plan_) plan_->warm_up(x, y);
}

template <class V>
Samples SpmvEngine<V>::measure(const MeasureOptions& opt) const {
  BSPMV_OBS_SPAN("measure");
  BSPMV_OBS_SPAN(plan_ ? "threaded" : "spmv");
  return detail::measure_guarded<V>(
      fmt_->rows(), fmt_->cols(), opt,
      [&](const V* x, V* y) {
        if (plan_)
          plan_->run(x, y, fmt_->candidate().impl, opt.control);
        else
          fmt_->run(x, y);
      },
      [&](V* x, V* y) { warm_up(x, y); });
}

template <class V>
Samples SpmvEngine<V>::measure_multi(int k, const MeasureOptions& opt) const {
  BSPMV_CHECK_MSG(k >= 1, "rhs count must be >= 1");
  BSPMV_OBS_SPAN("measure");
  BSPMV_OBS_SPAN(plan_ ? "threaded_multi" : "spmm");
  // The X/Y blocks are rows·k and cols·k flat arrays, so the guarded
  // loop's random input and finite/fingerprint scans carry over
  // unchanged.
  return detail::measure_guarded<V>(
      fmt_->rows() * static_cast<index_t>(k),
      fmt_->cols() * static_cast<index_t>(k), opt, [&](const V* x, V* y) {
        if (plan_)
          plan_->run_multi(x, y, k, fmt_->candidate().impl, opt.control);
        else
          fmt_->run_multi(x, y, k);
      });
}

template class SpmvEngine<float>;
template class SpmvEngine<double>;

}  // namespace bspmv
