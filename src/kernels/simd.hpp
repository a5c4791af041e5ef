// Portable SIMD primitives for the vectorised kernel variants.
//
// Built on GCC/Clang vector extensions with the SSE2 register width
// (16 bytes) that every x86-64 CPU guarantees: 2 doubles / 4 floats per
// vector. Loads and stores go through memcpy so unaligned access is
// well-defined; the compiler lowers them to movups/movupd.
#pragma once

#include <cstring>

#include "src/util/macros.hpp"

namespace bspmv {

template <class V>
struct SimdVec;

template <>
struct SimdVec<double> {
  using type = double __attribute__((vector_size(16)));
  using alias_type = double __attribute__((vector_size(16), may_alias));
  static constexpr int width = 2;
};

template <>
struct SimdVec<float> {
  using type = float __attribute__((vector_size(16)));
  using alias_type = float __attribute__((vector_size(16), may_alias));
  static constexpr int width = 4;
};

template <class V>
using simd_t = typename SimdVec<V>::type;

/// simd_t that may alias its lanes' type (storage read through V*).
template <class V>
using simd_alias_t = typename SimdVec<V>::alias_type;

template <class V>
inline constexpr int simd_width = SimdVec<V>::width;

/// Unaligned vector load.
template <class V>
BSPMV_ALWAYS_INLINE simd_t<V> simd_loadu(const V* p) {
  simd_t<V> v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Unaligned vector store.
template <class V>
BSPMV_ALWAYS_INLINE void simd_storeu(V* p, simd_t<V> v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Broadcast a scalar to all lanes.
template <class V>
BSPMV_ALWAYS_INLINE simd_t<V> simd_broadcast(V x) {
  simd_t<V> v;
  for (int i = 0; i < simd_width<V>; ++i) v[i] = x;
  return v;
}

/// Zero vector.
template <class V>
BSPMV_ALWAYS_INLINE simd_t<V> simd_zero() {
  return simd_t<V>{} - simd_t<V>{};
}

/// Horizontal sum of all lanes.
template <class V>
BSPMV_ALWAYS_INLINE V simd_hsum(simd_t<V> v) {
  V s = v[0];
  for (int i = 1; i < simd_width<V>; ++i) s += v[i];
  return s;
}

}  // namespace bspmv
