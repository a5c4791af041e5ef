#include "src/core/candidates.hpp"

#include "src/util/macros.hpp"

namespace bspmv {

const char* format_name(FormatKind kind) {
  switch (kind) {
    case FormatKind::kCsr: return "csr";
    case FormatKind::kBcsr: return "bcsr";
    case FormatKind::kBcsrDec: return "bcsr_dec";
    case FormatKind::kBcsd: return "bcsd";
    case FormatKind::kBcsdDec: return "bcsd_dec";
    case FormatKind::kVbl: return "vbl";
    case FormatKind::kUbcsr: return "ubcsr";
  }
  return "?";
}

std::string Candidate::id() const {
  std::string s = format_name(kind);
  switch (kind) {
    case FormatKind::kBcsr:
    case FormatKind::kBcsrDec:
    case FormatKind::kUbcsr:
      s += '_' + shape.to_string();
      break;
    case FormatKind::kBcsd:
    case FormatKind::kBcsdDec:
      s += '_' + std::to_string(b);
      break;
    default:
      break;
  }
  s += '_';
  s += impl_name(impl);
  return s;
}

std::string Candidate::kernel_id() const {
  Candidate base = *this;
  if (kind == FormatKind::kBcsrDec) base.kind = FormatKind::kBcsr;
  if (kind == FormatKind::kBcsdDec) base.kind = FormatKind::kBcsd;
  return base.id();
}

std::string csr_kernel_id(Impl impl) {
  return Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, impl}.id();
}

std::vector<Candidate> model_candidates(bool include_simd) {
  std::vector<Candidate> out;
  const auto impls = include_simd
                         ? std::vector<Impl>{Impl::kScalar, Impl::kSimd}
                         : std::vector<Impl>{Impl::kScalar};
  for (Impl impl : impls) {
    out.push_back(Candidate{FormatKind::kCsr, BlockShape{1, 1}, 0, impl});
    for (BlockShape shape : bcsr_shapes()) {
      out.push_back(Candidate{FormatKind::kBcsr, shape, 0, impl});
      out.push_back(Candidate{FormatKind::kBcsrDec, shape, 0, impl});
    }
    for (int b : bcsd_sizes()) {
      out.push_back(Candidate{FormatKind::kBcsd, BlockShape{1, 1}, b, impl});
      out.push_back(Candidate{FormatKind::kBcsdDec, BlockShape{1, 1}, b, impl});
    }
  }
  return out;
}

std::vector<Candidate> extension_candidates(bool include_simd) {
  std::vector<Candidate> out;
  const auto impls = include_simd
                         ? std::vector<Impl>{Impl::kScalar, Impl::kSimd}
                         : std::vector<Impl>{Impl::kScalar};
  for (Impl impl : impls)
    for (BlockShape shape : bcsr_shapes())
      out.push_back(Candidate{FormatKind::kUbcsr, shape, 0, impl});
  return out;
}

std::vector<Candidate> bench_candidates(bool include_simd) {
  std::vector<Candidate> out = model_candidates(include_simd);
  // The paper never ran a vectorised 1D-VBL (Table II shows '-').
  out.push_back(
      Candidate{FormatKind::kVbl, BlockShape{1, 1}, 0, Impl::kScalar});
  return out;
}

}  // namespace bspmv
