// Shared fixtures/utilities for the blockspmv test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/macros.hpp"
#include "src/core/candidates.hpp"
#include "src/formats/coo.hpp"
#include "src/formats/csr.hpp"
#include "src/profile/machine_profile.hpp"
#include "src/util/aligned.hpp"
#include "src/util/prng.hpp"

namespace bspmv::testing {

/// Random sparse matrix with ~`density` fill, deterministic per seed.
template <class V>
Coo<V> random_coo(index_t n, index_t m, double density, std::uint64_t seed) {
  Coo<V> coo(n, m);
  Xoshiro256 rng(seed);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < m; ++j)
      if (rng.uniform() < density)
        coo.add(i, j, static_cast<V>(0.1 + rng.uniform()));
  return coo;
}

/// Random matrix with clustered (block-friendly) structure.
template <class V>
Coo<V> random_blocky_coo(index_t n, index_t m, int block, double block_density,
                         double fill, std::uint64_t seed) {
  Coo<V> coo(n, m);
  Xoshiro256 rng(seed);
  for (index_t bi = 0; bi * block < n; ++bi) {
    for (index_t bj = 0; bj * block < m; ++bj) {
      if (rng.uniform() >= block_density) continue;
      for (int r = 0; r < block && bi * block + r < n; ++r)
        for (int c = 0; c < block && bj * block + c < m; ++c)
          if (rng.uniform() < fill)
            coo.add(bi * block + r, bj * block + c,
                    static_cast<V>(0.1 + rng.uniform()));
    }
  }
  return coo;
}

/// Raw construction, bypassing Coo: rows given as column lists, kept in
/// the given order, so unsorted and duplicate columns survive (validate
/// accepts both). Entry k holds the value k + 1.
template <class V = double>
Csr<V> raw_csr(index_t rows, index_t cols,
               const std::vector<std::vector<index_t>>& row_cols) {
  aligned_vector<index_t> row_ptr{0};
  aligned_vector<index_t> col_ind;
  for (index_t i = 0; i < rows; ++i) {
    if (static_cast<std::size_t>(i) < row_cols.size())
      for (const index_t j : row_cols[static_cast<std::size_t>(i)])
        col_ind.push_back(j);
    row_ptr.push_back(static_cast<index_t>(col_ind.size()));
  }
  aligned_vector<V> val(col_ind.size());
  for (std::size_t k = 0; k < val.size(); ++k) val[k] = static_cast<V>(k + 1);
  return Csr<V>(rows, cols, std::move(row_ptr), std::move(col_ind),
                std::move(val));
}

/// Column lists (for raw_csr) that put the decomposed kernels' remainder
/// chunks (32 bands; at most 256 rows) to the test. 1553 rows, a prime,
/// so every band height above 1 leaves a tail band, and 1600 columns:
///  - rows [0, 300): columns 0-7 dense (full blocks for most shapes)
///    plus 1-4 scattered entries, a FEM-like short remainder;
///  - rows [300, 800): 12 scattered entries, long remainder rows;
///  - rows [800, 1330): empty, whole chunks with no remainder;
///  - rows [1330, 1553): the diagonal (full BCSD blocks) plus 1-3
///    scattered entries.
inline std::vector<std::vector<index_t>> chunk_edge_rows() {
  std::vector<std::vector<index_t>> rc(1553);
  Xoshiro256 rng(20);
  auto scatter = [&](index_t i, std::uint64_t count) {
    for (std::uint64_t t = 0; t < count; ++t)
      rc[static_cast<std::size_t>(i)].push_back(
          8 + static_cast<index_t>(rng.below(1592)));
  };
  for (index_t i = 0; i < 300; ++i) {
    for (index_t j = 0; j < 8; ++j) rc[static_cast<std::size_t>(i)].push_back(j);
    scatter(i, 1 + rng.below(4));
  }
  for (index_t i = 300; i < 800; ++i) scatter(i, 12);
  for (index_t i = 1330; i < 1553; ++i) {
    rc[static_cast<std::size_t>(i)].push_back(i);
    scatter(i, 1 + rng.below(3));
  }
  return rc;
}

/// Named matrices whose shapes have broken the structural scans before:
/// empty matrices, one row of 2^20 columns, rows % 8 != 0 with unsorted
/// and duplicate columns, and BCSD keys below a band's first-row
/// diagonal (the StatsAdversarial cases in test_stats.cpp).
inline std::vector<std::pair<std::string, Csr<double>>> adversarial_csrs() {
  std::vector<std::pair<std::string, Csr<double>>> out;
  out.emplace_back("no nonzeros", raw_csr(9, 7, {}));
  out.emplace_back("0x0", raw_csr(0, 0, {}));
  out.emplace_back("0x5", raw_csr(0, 5, {}));
  const index_t n = index_t{1} << 20;
  out.emplace_back("1xn",
                   raw_csr(1, n, {{n - 1, 0, 7, n - 2, 7, n / 2, n / 2 + 1}}));
  out.emplace_back("unsorted", raw_csr(11, 13,
                                       {{5, 1, 0, 12, 1},
                                        {},
                                        {3, 2, 2, 3, 0, 1},
                                        {12, 11, 10, 9, 8, 7, 6, 5},
                                        {0, 0, 0, 0, 0, 0, 0, 0},
                                        {4, 6, 5, 4},
                                        {},
                                        {9, 3, 9, 3, 9, 3},
                                        {1, 2},
                                        {0, 12, 6}}));
  std::vector<std::vector<index_t>> lower(23);
  for (index_t i = 0; i < 23; ++i) {
    lower[static_cast<std::size_t>(i)] = {0};
    if (i >= 1) lower[static_cast<std::size_t>(i)].push_back(i - 1);
    if (i >= 7) lower[static_cast<std::size_t>(i)].push_back(i - 7);
  }
  out.emplace_back("lower", raw_csr(23, 23, lower));
  out.emplace_back(
      "lower narrow",
      raw_csr(8, 3, {{}, {0}, {1, 0}, {0, 2, 1}, {0}, {2, 0}, {1}, {0}}));
  return out;
}

/// Named matrices at the set-up's row-chunk edges (chunk bounds are
/// multiples of 840 rows, docs/tasking.md): 1, 839, 840, 841, 1681 and
/// 2521 rows; 841 and 2521 are multiples of no band height above 1. Rows
/// hold a short run on the diagonal and a few columns within 64 of it, so
/// an 840-row chunk's keys span under a quarter of the 8000 columns and a
/// conversion runs on every slot; every seventh row is reversed with a
/// duplicate column. The last row holds 2000 dense columns, over an
/// eighth of the nonzeros, so nonzero-balanced chunking puts a bound
/// right before it.
inline std::vector<std::pair<std::string, Csr<double>>> chunk_edge_csrs() {
  std::vector<std::pair<std::string, Csr<double>>> out;
  const index_t cols = 8000;
  Xoshiro256 rng(840);
  for (const index_t rows : {1, 839, 840, 841, 1681, 2521}) {
    std::vector<std::vector<index_t>> rc(static_cast<std::size_t>(rows));
    for (index_t i = 0; i < rows; ++i) {
      auto& r = rc[static_cast<std::size_t>(i)];
      for (std::uint64_t j = 0, len = rng.below(7); j < len; ++j)
        r.push_back(i + static_cast<index_t>(j));
      for (std::uint64_t t = 0, len = rng.below(4); t < len; ++t)
        r.push_back(i + static_cast<index_t>(rng.below(64)));
      std::sort(r.begin(), r.end());
      r.erase(std::unique(r.begin(), r.end()), r.end());
      if (i % 7 == 3 && !r.empty()) {
        std::reverse(r.begin(), r.end());
        r.push_back(r.front());
      }
    }
    auto& last = rc.back();
    last.clear();
    for (index_t j = 0; j < 2000; ++j) last.push_back(j);
    out.emplace_back("rows=" + std::to_string(rows), raw_csr(rows, cols, rc));
  }
  return out;
}

template <class V>
aligned_vector<V> random_x(index_t m, std::uint64_t seed) {
  aligned_vector<V> x(static_cast<std::size_t>(m));
  Xoshiro256 rng(seed);
  for (auto& e : x) e = static_cast<V>(rng.uniform() - 0.5);
  return x;
}

template <class V>
double rel_tolerance() {
  return sizeof(V) == sizeof(float) ? 2e-3 : 1e-10;
}

/// EXPECT y ≈ ref elementwise with a relative tolerance suited to V.
template <class V>
void expect_vectors_near(const V* y, const V* ref, index_t n,
                         const std::string& context) {
  const double tol = rel_tolerance<V>();
  for (index_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(y[i]);
    const double b = static_cast<double>(ref[i]);
    const double scale = std::max({std::abs(a), std::abs(b), 1.0});
    ASSERT_NEAR(a, b, tol * scale)
        << context << " mismatch at row " << i;
  }
}

/// ASSERT got holds want's bit pattern element for element, so -0.0 and
/// +0.0 differ. The first mismatch prints both values and their bits in
/// hex.
template <class V>
void expect_same_bits(const aligned_vector<V>& got,
                      const aligned_vector<V>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  using Bits =
      std::conditional_t<sizeof(V) == 8, std::uint64_t, std::uint32_t>;
  static_assert(sizeof(Bits) == sizeof(V));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Bits g = std::bit_cast<Bits>(got[i]);
    const Bits w = std::bit_cast<Bits>(want[i]);
    if (g != w)
      FAIL() << what << " row " << i << ": got " << std::hexfloat << got[i]
             << " (0x" << std::hex << g << ") want " << std::hexfloat
             << want[i] << " (0x" << std::hex << w << ")";
  }
}

/// Check an arbitrary spmv result against the COO reference.
template <class V, class RunFn>
void check_against_reference(const Coo<V>& coo, RunFn run,
                             const std::string& context,
                             std::uint64_t xseed = 7) {
  const auto x = random_x<V>(coo.cols(), xseed);
  aligned_vector<V> y(static_cast<std::size_t>(coo.rows()),
                      static_cast<V>(99));  // poison: must be overwritten
  aligned_vector<V> ref(static_cast<std::size_t>(coo.rows()), V{0});
  coo.spmv_reference(x.data(), ref.data());
  run(x.data(), y.data());
  expect_vectors_near(y.data(), ref.data(), coo.rows(), context);
}

/// A fully-populated synthetic machine profile (every kernel id from the
/// bench candidate set, both precisions) for model tests that must not
/// depend on wall-clock measurements.
inline MachineProfile synthetic_profile(double bw = 10e9, double tb = 2e-9,
                                        double nof = 0.3) {
  MachineProfile p;
  p.bandwidth_bps = bw;
  p.description = "synthetic test profile";
  for (Precision prec : {Precision::kSingle, Precision::kDouble}) {
    for (const Candidate& c : bench_candidates(true)) {
      p.set_kernel(prec, c.kernel_id(), KernelProfile{tb, nof});
      p.set_kernel(prec, c.id(), KernelProfile{tb, nof});
    }
  }
  return p;
}

}  // namespace bspmv::testing
