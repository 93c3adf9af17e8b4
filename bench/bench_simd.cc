// SIMD kernel-tier benchmark: measures what the vectorized tiers buy over
// the scalar reference tier. Kernel throughput sweep over every op of the
// kernel table (matmul_tile through MatMulTransposedRange) plus
// RowTopKIndices, at every tier the build + CPU supports, via SetKernelTier
// between passes. Each row reports one layer number: GFLOP/s for the
// compute-bound matmul (2 * rows^2 * d flops per pass), GB/s of operands
// read and written for everything else, and the x-over-scalar ratio. An
// op's samples go round-robin over the tiers, so a change in host speed
// between samples hits every tier alike instead of skewing the ratio.
//
// Gate (fatal): MatMulTransposedRange must reach >= 2x over scalar on at
// least one vector tier. A "SIMD tier" that beats scalar on nothing is dead
// code, not an optimization. On machines with only the scalar tier (no
// AVX2/AVX-512 compiled in or detected) the sweep degenerates to the scalar
// row and the gate fails.
//
// Writes BENCH_simd.json.
//
// Usage:
//   ./bench_simd                     # sizes scaled by EM_BENCH_SCALE
//   EM_BENCH_SCALE=0.2 ./bench_simd  # CI smoke run

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
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
constexpr size_t kMaskChunk = 64;     // mask_gt* take at most 64 lanes
constexpr double kMatmulGate = 2.0;   // x over scalar

// Defeats dead-code elimination across timed loops.
volatile double g_sink = 0.0;

constexpr size_t kSamples = 5;        // per (op, tier); the median counts

/// One op of the sweep: `pass` runs it on a tier's table and returns a value
/// to fold into g_sink; `work` is the bytes (GB/s) or flops (GFLOP/s) one
/// pass moves or computes.
struct OpCase {
  std::string kernel;
  double work = 0.0;
  const char* unit = "GB/s";
  std::function<double(const KernelOps&)> pass;
};

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
  const size_t reps =
      std::max<size_t>(2000, static_cast<size_t>(400000.0 * scale));
  const size_t mm_rows = std::max<size_t>(96, static_cast<size_t>(768.0 * scale));

  bench::PrintBanner(
      "SIMD kernel tiers — throughput over scalar",
      "Per-op GB/s (matmul GFLOP/s) per tier via runtime dispatch.");
  bench::BenchReport report("simd");

  std::vector<KernelTier> tiers = {KernelTier::kScalar};
  for (KernelTier tier : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  JsonValue::Array tier_names;
  std::cout << "cpu: " << DetectedCpuFeatures() << "\n"
            << "tiers: ";
  for (KernelTier tier : tiers) {
    std::cout << KernelTierName(tier) << " ";
    tier_names.push_back(KernelTierName(tier));
  }
  std::cout << "\n\n";
  report.Config("scale", scale);
  report.Config("dim", kDim);
  report.Config("matmul_rows", mm_rows);
  report.Config("samples", kSamples);
  report.Config("tiers", std::move(tier_names));

  const std::vector<float> va = RandomVec(kDim, 11);
  const std::vector<float> vb = RandomVec(kDim, 12);
  const Matrix ma = RandomMatrix(mm_rows, kDim, 13);
  const Matrix mb = RandomMatrix(mm_rows, kDim, 14);
  const Matrix topk_scores = RandomMatrix(mm_rows, mm_rows, 15);
  std::vector<float> scratch(kDim);
  std::vector<float> inv_tgt = RandomVec(kDim, 16);
  for (float& x : inv_tgt) x = std::abs(x) + 0.5f;
  const std::vector<double> col_inv(inv_tgt.begin(), inv_tgt.end());
  std::vector<double> col_acc(kDim);
  Matrix out(mm_rows, mm_rows);

  // One kDim-long call per rep; `op` stays a concrete type, so the rep loop
  // pays no std::function call per rep.
  const auto vector_op = [&](const std::string& kernel, double bytes_per_rep,
                             auto op) {
    return OpCase{kernel, bytes_per_rep * static_cast<double>(reps), "GB/s",
                  [reps, op](const KernelOps& ops) {
                    double acc = 0.0;
                    for (size_t r = 0; r < reps; ++r) acc += op(ops, r);
                    return acc;
                  }};
  };
  constexpr double kF = sizeof(float);
  constexpr double kD = sizeof(double);
  const std::vector<OpCase> cases = {
      vector_op("dot", 2 * kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  return ops.dot(va.data(), vb.data(), kDim);
                }),
      vector_op("manhattan", 2 * kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  return ops.manhattan(va.data(), vb.data(), kDim);
                }),
      vector_op("squared_norm", kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  return ops.squared_norm(va.data(), kDim);
                }),
      vector_op("sum", kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  return ops.sum(va.data(), kDim);
                }),
      vector_op("max", kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  return ops.max(va.data(), kDim);
                }),
      vector_op("argmax", kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  return static_cast<double>(ops.argmax(va.data(), kDim));
                }),
      // In place; the factors alternate 2 and 0.5 so values never drift to
      // infinity or denormals.
      vector_op("scale", 2 * kDim * kF,
                [&](const KernelOps& ops, size_t r) {
                  ops.scale(scratch.data(), kDim, (r & 1) ? 0.5f : 2.0f);
                  return scratch[0];
                }),
      vector_op("scale_copy", 2 * kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  ops.scale_copy(va.data(), scratch.data(), kDim, 1.25f);
                  return scratch[0];
                }),
      vector_op("cosine_scale_row", 3 * kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  std::copy(va.begin(), va.end(), scratch.begin());
                  ops.cosine_scale_row(scratch.data(), inv_tgt.data(), kDim,
                                       1.25f);
                  return scratch[0];
                }),
      vector_op("accumulate_max", 3 * kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  ops.accumulate_max(scratch.data(), vb.data(), kDim);
                  return scratch[0];
                }),
      vector_op("accumulate_cols", kDim * (kD + kF + kD),
                [&](const KernelOps& ops, size_t) {
                  ops.accumulate_cols(col_acc.data(), va.data(), kDim);
                  return col_acc[0];
                }),
      vector_op("mul_cols", kDim * (kF + kD + kF),
                [&](const KernelOps& ops, size_t) {
                  ops.mul_cols(scratch.data(), va.data(), col_inv.data(),
                               kDim);
                  return scratch[0];
                }),
      // The masks take at most 64 lanes: kDim in 64-lane chunks, as the
      // partial top-k kernels call them.
      vector_op("mask_gt", 2 * kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  uint64_t bits = 0;
                  for (size_t k = 0; k < kDim; k += kMaskChunk) {
                    bits ^= ops.mask_gt(va.data() + k, vb.data() + k,
                                        kMaskChunk);
                  }
                  return static_cast<double>(bits & 0xFFFF);
                }),
      vector_op("mask_gt_scalar", kDim * kF,
                [&](const KernelOps& ops, size_t) {
                  uint64_t bits = 0;
                  for (size_t k = 0; k < kDim; k += kMaskChunk) {
                    bits ^= ops.mask_gt_scalar(va.data() + k, 0.1f,
                                               kMaskChunk);
                  }
                  return static_cast<double>(bits & 0xFFFF);
                }),
      // Compute-bound: one multiply and one add per (row, col, k). Runs on
      // the active tier, which the sweep sets before every pass.
      OpCase{"matmul_range", 2.0 * mm_rows * mm_rows * kDim, "GFLOP/s",
             [&](const KernelOps&) {
               Status status = MatMulTransposedRange(ma, mb, 0, mm_rows, &out);
               if (!status.ok()) std::cerr << status.ToString() << "\n";
               return static_cast<double>(out.At(0, 0));
             }},
      OpCase{"row_topk_indices", 1.0 * mm_rows * mm_rows * kF, "GB/s",
             [&](const KernelOps&) {
               const std::vector<uint32_t> top =
                   RowTopKIndices(topk_scores, 10);
               return top.empty() ? 0.0 : static_cast<double>(top[0]);
             }},
  };

  // Speedups are scalar_seconds / tier_seconds per op; tiers[0] is scalar.
  double best_matmul_speedup = 0.0;
  std::string best_matmul_tier = "none";
  for (const OpCase& op : cases) {
    std::copy(va.begin(), va.end(), scratch.begin());
    std::fill(col_acc.begin(), col_acc.end(), 0.0);
    std::vector<std::vector<double>> samples(tiers.size());
    for (size_t s = 0; s < kSamples; ++s) {
      for (size_t t = 0; t < tiers.size(); ++t) {
        Status set = SetKernelTier(tiers[t]);
        if (!set.ok()) {
          std::cerr << "SetKernelTier: " << set.ToString() << "\n";
          return 1;
        }
        Timer timer;
        g_sink = g_sink + op.pass(ActiveKernels());
        samples[t].push_back(timer.ElapsedSeconds());
      }
    }
    std::vector<double> medians(tiers.size());
    for (size_t t = 0; t < tiers.size(); ++t) {
      std::sort(samples[t].begin(), samples[t].end());
      medians[t] = samples[t][kSamples / 2];
    }
    for (size_t t = 0; t < tiers.size(); ++t) {
      const std::string tier = KernelTierName(tiers[t]);
      const double throughput =
          medians[t] > 0.0 ? op.work / medians[t] / 1e9 : 0.0;
      const double speedup = medians[t] > 0.0 ? medians[0] / medians[t] : 0.0;
      const JsonValue::Object labels = {{"op", op.kernel}, {"tier", tier}};
      report.Metric("kernel", "throughput", labels, throughput, op.unit,
                    "higher");
      report.Metric("kernel", "speedup_vs_scalar", labels, speedup, "x",
                    "higher");
      std::cout << op.kernel << " [" << tier
                << "]: " << FormatDouble(throughput, 2) << " " << op.unit
                << ", " << FormatDouble(speedup, 2) << "x over scalar\n";
      if (op.kernel == "matmul_range" && t > 0 &&
          speedup > best_matmul_speedup) {
        best_matmul_speedup = speedup;
        best_matmul_tier = tier;
      }
    }
  }

  std::cout << "\n";
  report.Gate("matmul_range_over_scalar", best_matmul_speedup >= kMatmulGate,
              "best vector tier " + best_matmul_tier + " at " +
                  FormatDouble(best_matmul_speedup, 2) + "x, need >= " +
                  FormatDouble(kMatmulGate, 1) + "x");
  return report.Finish();
}
