#include "src/formats/validate.hpp"

#include <cstddef>
#include <limits>
#include <sstream>

namespace bspmv {

namespace {

[[noreturn]] void fail(const char* format, const std::string& what) {
  std::ostringstream os;
  os << format << " validation failed: " << what;
  throw validation_error(os.str());
}

void check_dims(const char* format, index_t rows, index_t cols) {
  if (rows < 0 || cols < 0)
    fail(format, "negative dimensions " + std::to_string(rows) + "x" +
                     std::to_string(cols));
}

// Shared checks for a CSR-style pointer array: size n+1, starts at 0,
// non-decreasing, ends at `total`.
void check_ptr(const char* format, const char* name,
               const aligned_vector<index_t>& ptr, std::size_t n,
               std::size_t total) {
  if (ptr.size() != n + 1)
    fail(format, std::string(name) + " has " + std::to_string(ptr.size()) +
                     " entries, expected " + std::to_string(n + 1));
  if (ptr.front() != 0)
    fail(format, std::string(name) + " does not start at 0");
  for (std::size_t i = 1; i < ptr.size(); ++i)
    if (ptr[i] < ptr[i - 1])
      fail(format, std::string(name) + " decreases at position " +
                       std::to_string(i));
  if (static_cast<std::size_t>(ptr.back()) != total)
    fail(format, std::string(name) + " ends at " +
                     std::to_string(ptr.back()) + ", expected " +
                     std::to_string(total));
}

// A decomposed remainder's row tags: one per entry, each its row's offset
// in its chunk of bands (the fused kernels index a stack buffer with it).
template <class V>
void check_rem_tags(const char* format, const Csr<V>& rem,
                    const aligned_vector<rem_tag_t>& tag, int band) {
  if (tag.size() != rem.nnz())
    fail(format, "remainder has " + std::to_string(tag.size()) +
                     " row tags, expected one per entry (" +
                     std::to_string(rem.nnz()) + ")");
  for (index_t i = 0; i < rem.rows(); ++i) {
    const rem_tag_t want = rem_tag(i, band);
    const auto k1 =
        static_cast<std::size_t>(rem.row_ptr()[static_cast<std::size_t>(i) + 1]);
    for (auto k = static_cast<std::size_t>(
             rem.row_ptr()[static_cast<std::size_t>(i)]);
         k < k1; ++k)
      if (tag[k] != want)
        fail(format, "remainder entry " + std::to_string(k) + " has row tag " +
                         std::to_string(tag[k]) + ", expected " +
                         std::to_string(want) + " for row " +
                         std::to_string(i));
  }
}

}  // namespace

template <class V>
void validate(const Coo<V>& a) {
  check_dims("coo", a.rows(), a.cols());
  for (const auto& e : a.entries())
    if (e.row < 0 || e.row >= a.rows() || e.col < 0 || e.col >= a.cols())
      fail("coo", "entry (" + std::to_string(e.row) + ", " +
                      std::to_string(e.col) + ") outside " +
                      std::to_string(a.rows()) + "x" +
                      std::to_string(a.cols()));
}

template <class V>
void validate(const Csr<V>& a) {
  check_dims("csr", a.rows(), a.cols());
  if (a.col_ind().size() != a.val().size())
    fail("csr", "col_ind and val lengths differ");
  check_ptr("csr", "row_ptr", a.row_ptr(),
            static_cast<std::size_t>(a.rows()), a.nnz());
  for (std::size_t k = 0; k < a.col_ind().size(); ++k) {
    const index_t c = a.col_ind()[k];
    if (c < 0 || c >= a.cols())
      fail("csr", "column index " + std::to_string(c) + " at position " +
                      std::to_string(k) + " outside [0, " +
                      std::to_string(a.cols()) + ")");
  }
}

template <class V>
void validate(const Bcsr<V>& a) {
  check_dims("bcsr", a.rows(), a.cols());
  const index_t r = a.shape().r;
  const index_t c = a.shape().c;
  if (r < 1 || c < 1) fail("bcsr", "block shape below 1x1");
  if (a.block_rows() != (a.rows() + r - 1) / r)
    fail("bcsr", "block_rows inconsistent with rows and r");
  check_ptr("bcsr", "brow_ptr", a.brow_ptr(),
            static_cast<std::size_t>(a.block_rows()), a.blocks());
  const index_t block_cols = (a.cols() + c - 1) / c;
  for (std::size_t k = 0; k < a.bcol_ind().size(); ++k) {
    const index_t bc = a.bcol_ind()[k];
    if (bc < 0 || bc >= block_cols)
      fail("bcsr", "block column " + std::to_string(bc) + " at block " +
                       std::to_string(k) + " outside [0, " +
                       std::to_string(block_cols) + ")");
  }
  const std::size_t elems = a.blocks() * static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(c);
  if (a.bval().size() != elems)
    fail("bcsr", "bval has " + std::to_string(a.bval().size()) +
                     " values, expected blocks*r*c = " +
                     std::to_string(elems));
  if (a.nnz() > a.bval().size())
    fail("bcsr", "nnz exceeds stored values");
}

template <class V>
void validate(const Bcsd<V>& a) {
  check_dims("bcsd", a.rows(), a.cols());
  const int b = a.b();
  if (b < 1) fail("bcsd", "diagonal length below 1");
  if (a.segments() != (a.rows() + b - 1) / b)
    fail("bcsd", "segments inconsistent with rows and b");
  check_ptr("bcsd", "brow_ptr", a.brow_ptr(),
            static_cast<std::size_t>(a.segments()), a.blocks());
  if (a.full_diags().size() != static_cast<std::size_t>(a.segments()))
    fail("bcsd", "full_diags has wrong length");
  if (a.bval().size() != a.blocks() * static_cast<std::size_t>(b))
    fail("bcsd", "bval has " + std::to_string(a.bval().size()) +
                     " values, expected blocks*b");
  if (a.nnz() > a.bval().size()) fail("bcsd", "nnz exceeds stored values");
  for (index_t s = 0; s < a.segments(); ++s) {
    const index_t lo = a.brow_ptr()[static_cast<std::size_t>(s)];
    const index_t hi = a.brow_ptr()[static_cast<std::size_t>(s) + 1];
    const index_t nfull = a.full_diags()[static_cast<std::size_t>(s)];
    if (nfull < 0 || nfull > hi - lo)
      fail("bcsd", "full_diags[" + std::to_string(s) +
                       "] outside the segment's diagonal count");
    const index_t base = s * b;
    for (index_t d = lo; d < hi; ++d) {
      // A diagonal must overlap the matrix: its start column may be
      // negative (partial) but some element (k, j0+k) must be in range.
      const index_t j0 = a.bcol_ind()[static_cast<std::size_t>(d)];
      if (j0 <= -b || j0 >= a.cols())
        fail("bcsd", "diagonal start column " + std::to_string(j0) +
                         " has no element inside the matrix");
      if (d < lo + nfull &&
          (j0 < 0 || j0 + b > a.cols() || base + b > a.rows()))
        fail("bcsd", "diagonal " + std::to_string(d) +
                         " marked full but extends outside the matrix");
    }
  }
}

template <class V>
void validate(const Vbl<V>& a) {
  check_dims("vbl", a.rows(), a.cols());
  check_ptr("vbl", "row_ptr", a.row_ptr(),
            static_cast<std::size_t>(a.rows()), a.nnz());
  if (a.bcol_ind().size() != a.blk_size().size())
    fail("vbl", "bcol_ind and blk_size lengths differ");
  // Blocks partition val sequentially; every row boundary must coincide
  // with a block boundary and every block must stay inside the matrix.
  std::size_t blk = 0;
  std::size_t k = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const std::size_t hi =
        static_cast<std::size_t>(a.row_ptr()[static_cast<std::size_t>(i) + 1]);
    while (k < hi) {
      if (blk >= a.blocks())
        fail("vbl", "row " + std::to_string(i) +
                        " extends past the last block");
      const int size = a.blk_size()[blk];
      const index_t col0 = a.bcol_ind()[blk];
      if (size < 1) fail("vbl", "zero-length block " + std::to_string(blk));
      if (col0 < 0 || col0 + size > a.cols())
        fail("vbl", "block " + std::to_string(blk) + " spans columns [" +
                        std::to_string(col0) + ", " +
                        std::to_string(col0 + size) + ") outside [0, " +
                        std::to_string(a.cols()) + ")");
      if (k + static_cast<std::size_t>(size) > hi)
        fail("vbl", "block " + std::to_string(blk) +
                        " crosses a row boundary");
      k += static_cast<std::size_t>(size);
      ++blk;
    }
  }
  if (blk != a.blocks())
    fail("vbl", "trailing blocks not referenced by any row");
}

template <class V>
void validate(const Ubcsr<V>& a) {
  check_dims("ubcsr", a.rows(), a.cols());
  const index_t r = a.shape().r;
  const index_t c = a.shape().c;
  if (r < 1 || c < 1) fail("ubcsr", "block shape below 1x1");
  if (a.block_rows() != (a.rows() + r - 1) / r)
    fail("ubcsr", "block_rows inconsistent with rows and r");
  check_ptr("ubcsr", "brow_ptr", a.brow_ptr(),
            static_cast<std::size_t>(a.block_rows()), a.blocks());
  for (std::size_t k = 0; k < a.bcol_ind().size(); ++k) {
    const index_t j0 = a.bcol_ind()[k];
    // Anchors start at a nonzero, so the first column must be in range
    // (the block may extend past the last column; kernels clamp).
    if (j0 < 0 || j0 >= a.cols())
      fail("ubcsr", "block start column " + std::to_string(j0) +
                        " outside [0, " + std::to_string(a.cols()) + ")");
  }
  const std::size_t elems = a.blocks() * static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(c);
  if (a.bval().size() != elems)
    fail("ubcsr", "bval has " + std::to_string(a.bval().size()) +
                      " values, expected blocks*r*c");
  if (a.nnz() > a.bval().size()) fail("ubcsr", "nnz exceeds stored values");
}

template <class V>
void validate(const BcsrDec<V>& a) {
  validate(a.blocked());
  validate(a.remainder());
  if (a.blocked().rows() != a.remainder().rows() ||
      a.blocked().cols() != a.remainder().cols())
    fail("bcsr_dec", "blocked and remainder dimensions differ");
  check_rem_tags("bcsr_dec", a.remainder(), a.remainder_tag(), a.shape().r);
}

template <class V>
void validate(const BcsdDec<V>& a) {
  validate(a.blocked());
  validate(a.remainder());
  if (a.blocked().rows() != a.remainder().rows() ||
      a.blocked().cols() != a.remainder().cols())
    fail("bcsd_dec", "blocked and remainder dimensions differ");
  check_rem_tags("bcsd_dec", a.remainder(), a.remainder_tag(), a.b());
}

#define BSPMV_INST(V)                        \
  template void validate(const Coo<V>&);     \
  template void validate(const Csr<V>&);     \
  template void validate(const Bcsr<V>&);    \
  template void validate(const Bcsd<V>&);    \
  template void validate(const Vbl<V>&);     \
  template void validate(const Ubcsr<V>&);   \
  template void validate(const BcsrDec<V>&); \
  template void validate(const BcsdDec<V>&);
BSPMV_INST(float)
BSPMV_INST(double)
#undef BSPMV_INST

}  // namespace bspmv
