#include "src/formats/csr.hpp"

#include "src/formats/conversion_guard.hpp"
#include "src/util/macros.hpp"

namespace bspmv {

template <class V>
Csr<V> Csr<V>::from_coo(Coo<V> coo) {
  coo.sort_and_combine();
  const index_t n = coo.rows();
  const index_t m = coo.cols();
  const std::size_t nnz = coo.nnz();
  ConversionGuard::check_index_width("csr", "nnz", nnz);
  ConversionGuard::check("csr", nnz, nnz, sizeof(V),
                         (static_cast<std::size_t>(n) + 1 + nnz) *
                             sizeof(index_t));

  aligned_vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  aligned_vector<index_t> col_ind(nnz);
  aligned_vector<V> val(nnz);

  for (const auto& e : coo.entries())
    ++row_ptr[static_cast<std::size_t>(e.row) + 1];
  for (index_t i = 0; i < n; ++i)
    row_ptr[static_cast<std::size_t>(i) + 1] +=
        row_ptr[static_cast<std::size_t>(i)];

  std::size_t k = 0;
  for (const auto& e : coo.entries()) {
    col_ind[k] = e.col;
    val[k] = e.value;
    ++k;
  }
  return Csr(n, m, std::move(row_ptr), std::move(col_ind), std::move(val));
}

template <class V>
Csr<V>::Csr(index_t rows, index_t cols, aligned_vector<index_t> row_ptr,
            aligned_vector<index_t> col_ind, aligned_vector<V> val)
    : rows_(rows), cols_(cols) {
  BSPMV_CHECK(rows_ >= 0 && cols_ >= 0);
  BSPMV_CHECK_MSG(row_ptr.size() == static_cast<std::size_t>(rows_) + 1,
                  "row_ptr must have rows+1 entries");
  BSPMV_CHECK_MSG(col_ind.size() == val.size(),
                  "col_ind and val must be the same length");
  BSPMV_CHECK_MSG(row_ptr.front() == 0 &&
                      static_cast<std::size_t>(row_ptr.back()) == val.size(),
                  "row_ptr must start at 0 and end at nnz");
  for (std::size_t i = 1; i < row_ptr.size(); ++i)
    BSPMV_CHECK_MSG(row_ptr[i] >= row_ptr[i - 1],
                    "row_ptr must be non-decreasing");
  for (index_t c : col_ind)
    BSPMV_CHECK_MSG(c >= 0 && c < cols_, "column index out of range");
  // Allocated non-const so that mutable_col_ind() may write through it.
  data_ = std::make_shared<Arrays>(
      Arrays{std::move(row_ptr), std::move(col_ind), std::move(val)});
}

template <class V>
aligned_vector<index_t>& Csr<V>::mutable_col_ind() {
  if (data_.use_count() != 1) data_ = std::make_shared<Arrays>(arrays());
  return const_cast<Arrays&>(*data_).col_ind;
}

template <class V>
std::size_t Csr<V>::working_set_bytes() const {
  const Arrays& d = arrays();
  return d.val.size() * sizeof(V) + d.col_ind.size() * sizeof(index_t) +
         d.row_ptr.size() * sizeof(index_t) +
         static_cast<std::size_t>(cols_) * sizeof(V) +  // x
         static_cast<std::size_t>(rows_) * sizeof(V);   // y
}

template <class V>
Coo<V> Csr<V>::to_coo() const {
  const Arrays& d = arrays();
  Coo<V> coo(rows_, cols_);
  coo.reserve(nnz());
  for (index_t i = 0; i < rows_; ++i)
    for (index_t k = d.row_ptr[static_cast<std::size_t>(i)];
         k < d.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      coo.add(i, d.col_ind[static_cast<std::size_t>(k)],
              d.val[static_cast<std::size_t>(k)]);
  return coo;
}

template class Csr<float>;
template class Csr<double>;

}  // namespace bspmv
