// Format explorer — a textual reproduction of the paper's Figure 1: shows
// how BCSR, BCSD, 1D-VBL and BCSR-DEC split the same small matrix into
// blocks, and prints each format's arrays.
//
//   $ ./format_explorer
#include <cstdio>

#include "src/formats/bcsd.hpp"
#include "src/formats/bcsr.hpp"
#include "src/formats/decomposed.hpp"
#include "src/formats/vbl.hpp"

using namespace bspmv;

namespace {

void print_dense(const Coo<double>& coo) {
  std::vector<std::vector<double>> m(
      static_cast<std::size_t>(coo.rows()),
      std::vector<double>(static_cast<std::size_t>(coo.cols()), 0.0));
  for (const auto& e : coo.entries())
    m[static_cast<std::size_t>(e.row)][static_cast<std::size_t>(e.col)] =
        e.value;
  for (const auto& row : m) {
    for (double v : row)
      v == 0.0 ? std::printf("  .") : std::printf(" %2.0f", v);
    std::printf("\n");
  }
}

template <class Vec>
void print_array(const char* name, const Vec& v) {
  std::printf("  %-10s = [", name);
  for (const auto& e : v) std::printf(" %g", static_cast<double>(e));
  std::printf(" ]\n");
}

}  // namespace

int main() {
  // The 8x8 example matrix in the spirit of the paper's Figure 1.
  Coo<double> coo(8, 8);
  const int entries[][3] = {
      {0, 0, 2}, {0, 1, 9}, {0, 4, 8}, {0, 5, 1}, {1, 0, 1}, {1, 1, 5},
      {1, 6, 5}, {1, 7, 1}, {2, 2, 6}, {2, 3, 9}, {3, 2, 2}, {3, 3, 4},
      {4, 4, 6}, {5, 5, 3}, {6, 6, 3}, {6, 7, 7}, {7, 6, 1}, {7, 7, 9},
  };
  for (const auto& e : entries)
    coo.add(e[0], e[1], static_cast<double>(e[2]));
  const Csr<double> a = Csr<double>::from_coo(coo);

  std::printf("Input matrix A (8x8, %zu nonzeros):\n", a.nnz());
  print_dense(coo);

  std::printf("\n(a) BCSR, 2x2 aligned blocks with padding\n");
  const Bcsr<double> bcsr = Bcsr<double>::from_csr(a, BlockShape{2, 2});
  std::printf("  %zu blocks, %zu padded zeros\n", bcsr.blocks(),
              bcsr.padding());
  print_array("brow_ptr", bcsr.brow_ptr());
  print_array("bcol_ind", bcsr.bcol_ind());
  print_array("bval", bcsr.bval());

  std::printf("\n(b) BCSD, diagonal blocks of length 2 with padding\n");
  const Bcsd<double> bcsd = Bcsd<double>::from_csr(a, 2);
  std::printf("  %zu diagonal blocks, %zu padded zeros\n", bcsd.blocks(),
              bcsd.padding());
  print_array("brow_ptr", bcsd.brow_ptr());
  print_array("bcol_ind", bcsd.bcol_ind());
  print_array("bval", bcsd.bval());

  std::printf("\n(c) 1D-VBL, variable-length horizontal blocks, no padding\n");
  const Vbl<double> vbl = Vbl<double>::from_csr(a);
  std::printf("  %zu blocks\n", vbl.blocks());
  print_array("row_ptr", vbl.row_ptr());
  print_array("bcol_ind", vbl.bcol_ind());
  print_array("blk_size", vbl.blk_size());
  print_array("val", vbl.val());

  std::printf("\n(d) BCSR-DEC, full 2x2 blocks + CSR remainder\n");
  const BcsrDec<double> dec = BcsrDec<double>::from_csr(a, BlockShape{2, 2});
  std::printf("  blocked part: %zu blocks (%zu nnz, zero padding); "
              "remainder: %zu nnz in CSR\n",
              dec.blocked().blocks(), dec.blocked().nnz(),
              dec.remainder().nnz());
  return 0;
}
