#ifndef ENTMATCHER_LA_KERNELS_DISPATCH_H_
#define ENTMATCHER_LA_KERNELS_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace entmatcher {

class JsonValue;  // common/json.h

/// Vector-ISA tiers of the numeric kernel layer. Every op of every tier
/// returns the scalar tier's bytes for finite inputs (only `max` keeps a
/// caveat, the sign of a zero maximum), so EM_KERNEL_TIER changes speed but
/// never a result, at every thread count, every run. This replaces the
/// contract under which squared_norm, sum and manhattan reassociated per
/// tier within 1e-5 relative of the scalar loops.
enum class KernelTier {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// The flat function table one tier exports. All pointers are non-null in a
/// registered tier; callers pick ops off ActiveKernels() inside their own
/// ParallelFor partitioning, so every op is thread-free and operates on raw
/// row pointers.
///
/// Bit-exactness contracts (load-bearing — tests assert them):
///  - Every cell of `matmul_tile` is byte-equal to `Dot` (below) at every
///    tier, so the candidate-index rerank (PairSimilarities → DotRows) emits
///    entries byte-equal to the dense matmul cells, and every tier's
///    MatMulTransposedRange output is byte-equal to the scalar tier's.
///  - Elementwise ops (scale, scale_copy, cosine_scale_row, accumulate_max,
///    accumulate_cols, mul_cols, max, argmax, mask_*) are bit-identical to
///    scalar at every tier (but for the sign of a zero `max`): same
///    arithmetic per element, no reassociation.
///  - Reductions (squared_norm, sum, manhattan) sum in LaneDot's lane order
///    (below) at every tier, where they used to reassociate per tier.
struct KernelOps {
  KernelTier tier = KernelTier::kScalar;
  const char* name = "scalar";

  /// C[r * c_stride + j] = Dot(a + r * a_stride, b + j * b_stride, d) for
  /// r < rows, j < cols, byte for byte: the vector tiers sum many cells at
  /// once, but each cell's own sum runs in Dot's order.
  void (*matmul_tile)(const float* a, size_t a_stride, size_t rows,
                      const float* b, size_t b_stride, size_t cols, size_t d,
                      float* c, size_t c_stride);

  /// Sum of squares accumulated in double (norm caches, L2 normalization).
  double (*squared_norm)(const float* v, size_t d);

  /// Sum of |a[k] - b[k]| accumulated in float (Manhattan distance).
  float (*manhattan)(const float* a, const float* b, size_t d);

  /// v[k] *= factor.
  void (*scale)(float* v, size_t d, float factor);

  /// dst[k] = src[k] * factor (Sinkhorn row normalization into the buffer).
  void (*scale_copy)(const float* src, float* dst, size_t d, float factor);

  /// row[j] *= si * inv_tgt[j] — the fused cosine inverse-norm scaling, with
  /// the source-side inverse norm hoisted into a broadcast operand.
  void (*cosine_scale_row)(float* row, const float* inv_tgt, size_t m,
                           float si);

  /// Sum accumulated in double (Sinkhorn row sums).
  double (*sum)(const float* v, size_t d);

  /// Maximum element (first maximum; a vector tier may return the other zero).
  float (*max)(const float* v, size_t d);

  /// Index of the maximum element, ties to the lowest index.
  size_t (*argmax)(const float* v, size_t d);

  /// acc[j] = max(acc[j], row[j]) (streaming column max).
  void (*accumulate_max)(float* acc, const float* row, size_t d);

  /// acc[j] += row[j], double accumulators (Sinkhorn column sums).
  void (*accumulate_cols)(double* acc, const float* row, size_t d);

  /// dst[j] = float(double(src[j]) * col_inv[j]) (Sinkhorn column scaling).
  void (*mul_cols)(float* dst, const float* src, const double* col_inv,
                   size_t d);

  /// Bit i set iff a[i] > b[i], for i < n <= 64. The compare-and-select
  /// filter behind the partial top-k kernels: most score entries fail the
  /// running threshold, so whole vector lanes are skipped per compare.
  uint64_t (*mask_gt)(const float* a, const float* b, size_t n);

  /// Bit i set iff a[i] > threshold, for i < n <= 64.
  uint64_t (*mask_gt_scalar)(const float* a, float threshold, size_t n);
};

/// Display name ("scalar", "avx2", "avx512").
const char* KernelTierName(KernelTier tier);

/// Parses "scalar" | "avx2" | "avx512". "auto" is not a tier —
/// resolve it with BestAvailableKernelTier().
Result<KernelTier> ParseKernelTier(std::string_view name);

/// True when `tier` was compiled in AND the running CPU supports it.
bool KernelTierAvailable(KernelTier tier);

/// The widest available tier on this CPU (what EM_KERNEL_TIER=auto picks).
KernelTier BestAvailableKernelTier();

/// The active tier's function table. On first use the tier is resolved from
/// EM_KERNEL_TIER (scalar|avx2|avx512|auto; unset or invalid values fall
/// back to auto with a warning), making the choice a pure startup decision —
/// steady-state reads are a single atomic load.
const KernelOps& ActiveKernels();

/// The active tier.
KernelTier ActiveKernelTier();

/// Forces a tier (tests, CLI --kernel-tier). Fails with kInvalidArgument when
/// the tier is not available on this CPU/build. Not synchronized against
/// kernels already running on other threads — switch tiers only between
/// queries (the CLI does it before any engine exists).
Status SetKernelTier(KernelTier tier);

/// Space-separated vector features detected on this CPU at startup (e.g.
/// "avx2 fma avx512f avx512bw avx512dq avx512vl"), independent of which tiers
/// were compiled in. Empty string when none.
std::string DetectedCpuFeatures();

/// The `kernels` member of the health/stats replies:
/// {"available": "scalar avx2 avx512", "cpu": "...", "tier": "avx512"}.
JsonValue KernelStatusJson();

/// The library's two inner products. Neither is a table op, and both are
/// defined in kernels_scalar.cc, which no -m flag reaches, so each gives the
/// same bits at every tier. The library builds with -ffp-contract=off, so
/// no compiler fuses a product into its add anywhere. Who calls which:
///  - Dot (and DotRows) for every emitted score: every tier's matmul_tile
///    cells and the candidate rerank (PairSimilarities → DotRows). Also IVF
///    centroid probing and k-means, so IVF indexes keep their bytes.
///  - LaneDot for HNSW graph navigation only (descent, beam search, neighbor
///    selection, back-links), at build and probe time. It never reaches an
///    emitted score: the rerank rescores every HNSW candidate with DotRows.
///
/// Dot: a[k] * b[k] summed for k = 0, 1, ..., d - 1 in that order, from
/// 0.0f, each product rounded to float before its add.
float Dot(const float* a, const float* b, size_t d);

/// out[c] = Dot(a, b + rows[c] * b_stride, d) for c < count. Eight sums run
/// side by side, each in Dot's order, so their adds overlap instead of each
/// waiting on the one before it.
void DotRows(const float* a, const float* b, size_t b_stride,
             const uint32_t* rows, size_t count, size_t d, float* out);

/// LaneDot: a[k] * b[k], each product rounded to float, summed in the lane
/// order of every reduction and of HNSW navigation. Sixteen lanes from +0:
/// lane l (0–15) sums the terms k ≡ l (mod 16) over the whole blocks of 16
/// in increasing k. The lanes then fold upper half onto lower, lane[l] +=
/// lane[l + 8] for l < 8, then + 4, + 2, + 1, and the last d mod 16 terms
/// are added to lane 0 in increasing k. About d / 16 + 4 + d mod 16
/// dependent adds instead of Dot's d, in one plain C++ implementation, so
/// the HNSW graph is the same at every tier.
float LaneDot(const float* a, const float* b, size_t d);

// Per-tier registration hooks, null when the build does not include the
// tier. kernels_scalar.cc defines the scalar one; each vector tier's
// translation unit instantiates la/kernels/vector_kernels.h at its lane count
// under that ISA's -m flags and exports nothing but its hook. dispatch.cc
// calls them after the CPU probe; the kernel tests call them directly, and
// only for tiers KernelTierAvailable() reports.
const KernelOps* GetScalarKernels();
const KernelOps* GetAvx2Kernels();   // null unless ENTMATCHER_HAVE_AVX2
const KernelOps* GetAvx512Kernels(); // null unless ENTMATCHER_HAVE_AVX512

}  // namespace entmatcher

#endif  // ENTMATCHER_LA_KERNELS_DISPATCH_H_
