#include "src/kernels/bcsr_kernels_impl.hpp"

namespace bspmv {
template BcsrKernelFn<double> bcsr_kernel<double>(BlockShape, bool, bool);
}  // namespace bspmv
