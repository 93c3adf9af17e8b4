// NEON tier (aarch64): the vector kernels at 4 lanes. Compiled only when
// CMAKE_SYSTEM_PROCESSOR is aarch64 / arm64 — NEON is baseline there, so no
// runtime probe beyond the build gate.

#if defined(__aarch64__) || defined(_M_ARM64)

#include "la/kernels/vector_kernels.h"

namespace entmatcher {

const KernelOps* GetNeonKernels() {
  static constexpr KernelOps kOps =
      VectorKernelOps<4>(KernelTier::kNeon, "neon");
  return &kOps;
}

}  // namespace entmatcher

#endif  // aarch64
