// Deep structural-invariant checkers for every storage format.
//
// validate(m) walks the whole indexing structure of `m` and throws
// validation_error on the first broken invariant: non-monotone row/block
// pointers, out-of-range column or block indices, inconsistent array
// sizes, or index-width overflow. A matrix that passes validate() is safe
// to hand to the corresponding SpMV kernel — every pointer dereference
// the kernel performs is covered by one of these checks.
//
// Cost is O(size of the indexing structures); conversions stay
// validation-free on the hot path and the executor's try_prepare runs
// validate() once per materialised candidate.
#pragma once

#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/coo.hpp"
#include "src/formats/csr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/formats/ubcsr.hpp"
#include "src/formats/vbl.hpp"
#include "src/util/errors.hpp"

namespace bspmv {

template <class V>
void validate(const Coo<V>& a);
template <class V>
void validate(const Csr<V>& a);
template <class V>
void validate(const Bcsr<V>& a);
template <class V>
void validate(const Bcsd<V>& a);
template <class V>
void validate(const Vbl<V>& a);
template <class V>
void validate(const Ubcsr<V>& a);
template <class V>
void validate(const BcsrDec<V>& a);
template <class V>
void validate(const BcsdDec<V>& a);

#define BSPMV_DECL(V)                         \
  extern template void validate(const Coo<V>&);     \
  extern template void validate(const Csr<V>&);     \
  extern template void validate(const Bcsr<V>&);    \
  extern template void validate(const Bcsd<V>&);    \
  extern template void validate(const Vbl<V>&);     \
  extern template void validate(const Ubcsr<V>&);   \
  extern template void validate(const BcsrDec<V>&); \
  extern template void validate(const BcsdDec<V>&);
BSPMV_DECL(float)
BSPMV_DECL(double)
#undef BSPMV_DECL

}  // namespace bspmv
