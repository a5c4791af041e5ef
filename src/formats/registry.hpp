// Compile-time format registry.
//
// FormatList is an ordered type list of storage formats (each with a
// FormatOps specialisation); BuiltinFormats<V> enumerates every format
// the library ships. AnyFormat's storage variant and all of its
// dispatching (convert/run/validate/working_set_bytes) are generated from
// this list, as are the registry-driven tests — adding a format means
// writing its FormatOps specialisation and appending it here; no
// dispatch code changes anywhere.
#pragma once

#include <type_traits>
#include <variant>

#include "src/formats/format_ops.hpp"

namespace bspmv {

template <class... Fs>
struct FormatList {
  /// Call fn(std::type_identity<F>{}) for every format, in list order.
  template <class Fn>
  static constexpr void for_each(Fn&& fn) {
    (fn(std::type_identity<Fs>{}), ...);
  }

  /// Storage variant over the list; monostate is the empty state.
  using variant = std::variant<std::monostate, Fs...>;

  static constexpr std::size_t size = sizeof...(Fs);
};

/// Every format the library ships: the paper's candidate space (CSR,
/// BCSR, BCSD, their decomposed variants and 1D-VBL) plus the UBCSR
/// extension.
template <class V>
using BuiltinFormats = FormatList<Csr<V>, Bcsr<V>, Bcsd<V>, Vbl<V>,
                                  BcsrDec<V>, BcsdDec<V>, Ubcsr<V>>;

/// Iterate the built-in registry: fn(std::type_identity<F>{}) per format.
template <class V, class Fn>
constexpr void for_each_format(Fn&& fn) {
  BuiltinFormats<V>::for_each(std::forward<Fn>(fn));
}

}  // namespace bspmv
