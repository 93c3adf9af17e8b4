// SIMD kernel-tier benchmark: measures what the vectorized tiers buy over
// the scalar reference tier. Kernel throughput sweep: GB/s and
// x-over-scalar for the hot kernels (dot, MatMulTransposedRange, manhattan,
// squared_norm, sum, cosine_scale_row, RowTopKIndices) at every tier the
// build + CPU supports, via SetKernelTier between passes.
//
// Gate (fatal): MatMulTransposedRange must reach >= 2x over scalar on at
// least one vector tier. A "SIMD tier" that beats scalar on nothing is dead
// code, not an optimization. On machines with only the scalar tier (no
// AVX2/AVX-512/NEON compiled in or detected) the sweep degenerates to the
// scalar row and the gate fails.
//
// Writes BENCH_simd.json.
//
// Usage:
//   ./bench_simd                     # sizes scaled by EM_BENCH_SCALE
//   EM_BENCH_SCALE=0.2 ./bench_simd  # CI smoke run

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "la/kernels/dispatch.h"
#include "la/matrix.h"
#include "la/topk.h"

namespace entmatcher {
namespace {

constexpr size_t kDim = 128;          // micro-kernel vector length
constexpr double kMatmulGate = 2.0;   // x over scalar

// Defeats dead-code elimination across timed loops.
volatile double g_sink = 0.0;

struct KernelTiming {
  std::string kernel;
  std::string tier;
  double seconds = 0.0;
  double gbps = 0.0;
  double speedup_vs_scalar = 0.0;  // filled after the scalar row is known
};

/// Median-of-3 timed runs of `body`, which must fold its result into g_sink.
template <typename Fn>
double TimeSeconds(Fn&& body) {
  double best[3];
  for (double& sample : best) {
    Timer timer;
    body();
    sample = timer.ElapsedSeconds();
  }
  std::sort(best, best + 3);
  return best[1];
}

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (float& x : m.Row(r)) x = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

}  // namespace
}  // namespace entmatcher

int main() {
  using namespace entmatcher;

  const double scale = bench::GlobalScale();
  const size_t reps = std::max<size_t>(2000, static_cast<size_t>(50000.0 * scale));
  const size_t mm_rows = std::max<size_t>(96, static_cast<size_t>(768.0 * scale));

  bench::PrintBanner(
      "SIMD kernel tiers — throughput over scalar",
      "Hot-kernel GB/s per tier via runtime dispatch.");

  std::vector<KernelTier> tiers = {KernelTier::kScalar};
  for (KernelTier tier :
       {KernelTier::kAvx2, KernelTier::kAvx512, KernelTier::kNeon}) {
    if (KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  std::cout << "cpu: " << DetectedCpuFeatures() << "\n"
            << "tiers: ";
  for (KernelTier tier : tiers) std::cout << KernelTierName(tier) << " ";
  std::cout << "\n\n";

  const std::vector<float> va = RandomVec(kDim, 11);
  const std::vector<float> vb = RandomVec(kDim, 12);
  const Matrix ma = RandomMatrix(mm_rows, kDim, 13);
  const Matrix mb = RandomMatrix(mm_rows, kDim, 14);
  const Matrix topk_scores = RandomMatrix(mm_rows, mm_rows, 15);
  std::vector<float> scratch(kDim);
  std::vector<float> inv_tgt = RandomVec(kDim, 16);
  for (float& x : inv_tgt) x = std::abs(x) + 0.5f;

  std::vector<KernelTiming> timings;
  for (KernelTier tier : tiers) {
    Status set = SetKernelTier(tier);
    if (!set.ok()) {
      std::cerr << "SetKernelTier: " << set.ToString() << "\n";
      return 1;
    }
    const KernelOps& ops = ActiveKernels();
    const std::string name = KernelTierName(tier);
    const auto push = [&](const std::string& kernel, double seconds,
                          double bytes_per_rep, size_t rep_count) {
      KernelTiming t;
      t.kernel = kernel;
      t.tier = name;
      t.seconds = seconds;
      t.gbps = seconds > 0.0
                   ? bytes_per_rep * static_cast<double>(rep_count) /
                         seconds / 1e9
                   : 0.0;
      timings.push_back(t);
    };

    push("dot", TimeSeconds([&] {
           double acc = 0.0;
           for (size_t r = 0; r < reps; ++r) {
             acc += ops.dot(va.data(), vb.data(), kDim);
           }
           g_sink = g_sink + acc;
         }),
         2.0 * kDim * sizeof(float), reps);
    push("manhattan", TimeSeconds([&] {
           double acc = 0.0;
           for (size_t r = 0; r < reps; ++r) {
             acc += ops.manhattan(va.data(), vb.data(), kDim);
           }
           g_sink = g_sink + acc;
         }),
         2.0 * kDim * sizeof(float), reps);
    push("squared_norm", TimeSeconds([&] {
           double acc = 0.0;
           for (size_t r = 0; r < reps; ++r) {
             acc += ops.squared_norm(va.data(), kDim);
           }
           g_sink = g_sink + acc;
         }),
         1.0 * kDim * sizeof(float), reps);
    push("sum", TimeSeconds([&] {
           double acc = 0.0;
           for (size_t r = 0; r < reps; ++r) {
             acc += ops.sum(va.data(), kDim);
           }
           g_sink = g_sink + acc;
         }),
         1.0 * kDim * sizeof(float), reps);
    push("cosine_scale_row", TimeSeconds([&] {
           for (size_t r = 0; r < reps; ++r) {
             std::copy(va.begin(), va.end(), scratch.begin());
             ops.cosine_scale_row(scratch.data(), inv_tgt.data(), kDim, 1.25f);
           }
           g_sink = g_sink + scratch[0];
         }),
         3.0 * kDim * sizeof(float), reps);
    {
      Matrix out(mm_rows, mm_rows);
      const double mm_seconds = TimeSeconds([&] {
        Status status = MatMulTransposedRange(ma, mb, 0, mm_rows, &out);
        if (!status.ok()) std::cerr << status.ToString() << "\n";
        g_sink = g_sink + out.At(0, 0);
      });
      // Bytes: both operand matrices plus the output, once per pass.
      push("matmul_range", mm_seconds,
           (2.0 * mm_rows * kDim + 1.0 * mm_rows * mm_rows) * sizeof(float),
           1);
    }
    push("row_topk_indices", TimeSeconds([&] {
           const std::vector<uint32_t> top = RowTopKIndices(topk_scores, 10);
           g_sink = g_sink + (top.empty() ? 0.0 : static_cast<double>(top[0]));
         }),
         1.0 * mm_rows * mm_rows * sizeof(float), 1);
  }

  // Speedups are scalar_seconds / tier_seconds per kernel.
  double best_matmul_speedup = 0.0;
  std::string best_matmul_tier = "none";
  for (KernelTiming& t : timings) {
    for (const KernelTiming& s : timings) {
      if (s.tier == "scalar" && s.kernel == t.kernel && t.seconds > 0.0) {
        t.speedup_vs_scalar = s.seconds / t.seconds;
      }
    }
    if (t.kernel == "matmul_range" && t.tier != "scalar" &&
        t.speedup_vs_scalar > best_matmul_speedup) {
      best_matmul_speedup = t.speedup_vs_scalar;
      best_matmul_tier = t.tier;
    }
  }
  for (const KernelTiming& t : timings) {
    std::cout << t.kernel << " [" << t.tier
              << "]: " << FormatDouble(t.gbps, 2) << " GB/s, "
              << FormatDouble(t.speedup_vs_scalar, 2) << "x over scalar\n";
  }

  const bool ok = best_matmul_speedup >= kMatmulGate;
  if (!ok) {
    std::cerr << "\nFATAL: no vector tier reached " << kMatmulGate
              << "x on matmul_range (best " << best_matmul_speedup << "x on "
              << best_matmul_tier << ")\n";
  }

  std::ofstream json("BENCH_simd.json");
  json << "{\n  \"scale\": " << scale << ",\n  \"dim\": " << kDim
       << ",\n  \"matmul_rows\": " << mm_rows << ",\n  \"cpu\": \""
       << DetectedCpuFeatures() << "\",\n  \"tiers\": [";
  for (size_t i = 0; i < tiers.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\"" << KernelTierName(tiers[i]) << "\"";
  }
  json << "],\n  \"kernels\": [\n";
  for (size_t i = 0; i < timings.size(); ++i) {
    json << "    {\"kernel\": \"" << timings[i].kernel << "\", \"tier\": \""
         << timings[i].tier << "\", \"seconds\": " << timings[i].seconds
         << ", \"gbps\": " << timings[i].gbps
         << ", \"speedup_vs_scalar\": " << timings[i].speedup_vs_scalar
         << "}" << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"matmul_gate\": {\"required\": " << kMatmulGate
       << ", \"best_tier\": \"" << best_matmul_tier
       << "\", \"best_speedup\": " << best_matmul_speedup
       << ", \"passed\": " << (ok ? "true" : "false")
       << "},\n  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
  std::cout << "\nwrote BENCH_simd.json (" << timings.size()
            << " kernel timings)\n";
  return ok ? 0 : 1;
}
