// AVX-512 tier (F+BW+DQ+VL): the vector kernels at 16 lanes, compiled with
// that ISA's -m flags. Only dispatch.cc calls GetAvx512Kernels(), after the
// CPU probe.

#if defined(__x86_64__) || defined(_M_X64)

#include "la/kernels/vector_kernels.h"

namespace entmatcher {

const KernelOps* GetAvx512Kernels() {
  static constexpr KernelOps kOps =
      VectorKernelOps<16>(KernelTier::kAvx512, "avx512");
  return &kOps;
}

}  // namespace entmatcher

#endif  // x86_64
