// AVX2+FMA tier: the vector kernels at 8 lanes, compiled with -mavx2 -mfma.
// Only dispatch.cc calls GetAvx2Kernels(), after the CPU probe confirms the
// ISA, so no AVX2 instruction can execute on an unsupported machine.

#if defined(__x86_64__) || defined(_M_X64)

#include "la/kernels/vector_kernels.h"

namespace entmatcher {

const KernelOps* GetAvx2Kernels() {
  static constexpr KernelOps kOps =
      VectorKernelOps<8>(KernelTier::kAvx2, "avx2");
  return &kOps;
}

}  // namespace entmatcher

#endif  // x86_64
