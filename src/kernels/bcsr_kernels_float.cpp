#include "src/kernels/bcsr_kernels_impl.hpp"

namespace bspmv {
template BcsrKernelFn<float> bcsr_kernel<float>(BlockShape, bool, bool);
}  // namespace bspmv
