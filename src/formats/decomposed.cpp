#include "src/formats/decomposed.hpp"

namespace bspmv {

template <class V>
BcsrDec<V> BcsrDec<V>::from_csr(const Csr<V>& a, BlockShape shape) {
  BcsrDec out;
  out.blocked_ = Bcsr<V>::build(a, shape, &out.remainder_, &out.rem_tag_);
  return out;
}

template <class V>
std::size_t BcsrDec<V>::working_set_bytes() const {
  // x and y are shared by the two parts; subtract one copy of each.
  return blocked_.working_set_bytes() + remainder_.working_set_bytes() +
         rem_tag_.size() * sizeof(rem_tag_t) -
         static_cast<std::size_t>(cols()) * sizeof(V) -
         static_cast<std::size_t>(rows()) * sizeof(V);
}

template <class V>
Coo<V> BcsrDec<V>::to_coo() const {
  Coo<V> coo = blocked_.to_coo();
  const Coo<V> rem = remainder_.to_coo();
  for (const auto& e : rem.entries()) coo.add(e.row, e.col, e.value);
  return coo;
}

template <class V>
BcsdDec<V> BcsdDec<V>::from_csr(const Csr<V>& a, int b) {
  BcsdDec out;
  out.blocked_ = Bcsd<V>::build(a, b, &out.remainder_, &out.rem_tag_);
  return out;
}

template <class V>
std::size_t BcsdDec<V>::working_set_bytes() const {
  return blocked_.working_set_bytes() + remainder_.working_set_bytes() +
         rem_tag_.size() * sizeof(rem_tag_t) -
         static_cast<std::size_t>(cols()) * sizeof(V) -
         static_cast<std::size_t>(rows()) * sizeof(V);
}

template <class V>
Coo<V> BcsdDec<V>::to_coo() const {
  Coo<V> coo = blocked_.to_coo();
  const Coo<V> rem = remainder_.to_coo();
  for (const auto& e : rem.entries()) coo.add(e.row, e.col, e.value);
  return coo;
}

template class BcsrDec<float>;
template class BcsrDec<double>;
template class BcsdDec<float>;
template class BcsdDec<double>;

}  // namespace bspmv
