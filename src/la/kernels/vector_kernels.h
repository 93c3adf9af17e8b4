// The vector kernel tier, written once over GCC vector extensions and
// templated on the float lane count W. Each vector tier's translation unit
// instantiates it under that ISA's -m flags: kernels_avx2.cc at W = 8,
// kernels_avx512.cc at W = 16. The kernel tests also build a W = 4 table
// with the default flags.
//
// Everything here has internal linkage (anonymous namespace), so every tier
// gets its own copy compiled for its own ISA: the linker can never merge an
// AVX-512 instantiation into code that runs on an AVX2-only CPU.
//
// How the dispatch.h contracts hold:
//  - Elementwise ops, max/argmax and the masks do the scalar tier's
//    arithmetic per lane: an ordered `>` and a select, so NaN is rejected
//    exactly as by the scalar `>`, and no multiply is fused into an add the
//    scalar code rounds separately.
//  - `dot` and every `matmul_tile` cell run the same Dot. Its FMA comes from
//    the compiler contracting `acc += a * b` (GCC's default for C++ when
//    optimizing; the x86 tiers build with -mfma); a build that does not
//    contract still meets every contract, at a multiply and an add per lane.
//  - Reductions reassociate: lane accumulators, then a halving tree.
//
// Only two helpers depend on the ISA, chosen by the target macros: GtBits
// (the lane mask of a compare) and MaskedTail (AVX-512's masked load).

#ifndef ENTMATCHER_LA_KERNELS_VECTOR_KERNELS_H_
#define ENTMATCHER_LA_KERNELS_VECTOR_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "la/kernels/dispatch.h"

namespace entmatcher {
namespace {

// N lanes of T. Spelled through a class template because GCC ignores
// vector_size on an alias template's dependent type.
template <typename T, size_t N>
struct VecOf {
  typedef T type __attribute__((vector_size(N * sizeof(T))));
};
template <typename T, size_t N>
using Vec = typename VecOf<T, N>::type;

// Unaligned load and store of a vector, or of one scalar.
template <typename V>
V Load(const void* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
void Store(void* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// x in every lane: x - 0 == x for every float, -0 and NaN included.
template <typename V>
V Splat(float x) {
  return x - V{};
}

// Folds the lanes with `op` as a halving tree, op(lower half, upper half),
// until one lane is left. For a sum this is the order of the x86 reduce
// intrinsics and of the movehl/movehdup sequence. The last step stays a
// vector op: on scalars GCC emits the slower haddps.
template <typename T, size_t N, typename Op>
T HalvingFold(Vec<T, N> v, Op op) {
  if constexpr (N == 2) {
    return op(v, __builtin_shufflevector(v, v, 1, 0))[0];
  } else {
    return [&]<size_t... L>(std::index_sequence<L...>) {
      return HalvingFold<T, N / 2>(
          op(__builtin_shufflevector(v, v, L...),
             __builtin_shufflevector(v, v, (L + N / 2)...)),
          op);
    }(std::make_index_sequence<N / 2>());
  }
}

template <typename T, size_t N>
T HorizontalSum(Vec<T, N> v) {
  return HalvingFold<T, N>(v, [](auto lo, auto hi) { return lo + hi; });
}

// ISA helper 1: bit l set iff a[l] > b[l], the ordered compare of the
// scalar `>`.
template <size_t W>
uint32_t GtBits(Vec<float, W> a, Vec<float, W> b) {
#if defined(__AVX512F__)
  if constexpr (W == 16) {
    return _mm512_cmp_ps_mask(reinterpret_cast<__m512>(a),
                              reinterpret_cast<__m512>(b), _CMP_GT_OQ);
  }
#endif
#if defined(__AVX2__)
  if constexpr (W == 8) {
    return static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_cmp_ps(reinterpret_cast<__m256>(a),
                      reinterpret_cast<__m256>(b), _CMP_GT_OQ)));
  }
#endif
  Vec<int32_t, W> bit;
  for (size_t l = 0; l < W; ++l) bit[l] = int32_t{1} << l;
  return static_cast<uint32_t>(HorizontalSum<int32_t, W>((a > b) & bit));
}

// ISA helper 2: the first n < W floats at p, the other lanes +0.0f. Dead
// lanes leave an accumulator unchanged (0 * 0 + acc == acc, |0 - 0| == 0),
// so a reduction folds its last d % W elements into the vector accumulators
// instead of finishing with a scalar loop. Only AVX-512 has a masked load;
// kMaskedTail<W> says whether MaskedTail<W> exists.
template <size_t W>
constexpr bool kMaskedTail = false;
template <size_t W>
Vec<float, W> MaskedTail(const float* p, size_t n);
#if defined(__AVX512F__)
template <>
constexpr bool kMaskedTail<16> = true;
template <>
inline Vec<float, 16> MaskedTail<16>(const float* p, size_t n) {
  return reinterpret_cast<Vec<float, 16>>(
      _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1u), p));
}
#endif

template <size_t W>
struct VectorKernels {
  using F = Vec<float, W>;
  using I = Vec<int32_t, W>;
  using U = Vec<uint32_t, W>;
  using H = Vec<float, W / 2>;   // converts to and from D
  using D = Vec<double, W / 2>;  // the bytes of one F

  // Lane by lane: GCC 12 lowers __builtin_convertvector here to half-width
  // converts plus an insert, this to one vcvtps2pd.
  static D Widen(H h) {
    return [h]<size_t... L>(std::index_sequence<L...>) {
      return D{static_cast<double>(h[L])...};
    }(std::make_index_sequence<W / 2>());
  }

  static F Abs(F x) {
    return reinterpret_cast<F>(reinterpret_cast<I>(x) & 0x7FFFFFFF);
  }

  static uint32_t Gt(F a, F b) { return GtBits<W>(a, b); }
  static uint32_t Gt(float a, float b) { return a > b; }

  // body.template operator()<F>(k) on every whole vector of [0, n), then
  // <float> on each element left: one expression serves lanes and tail.
  template <typename Body>
  static void Each(size_t n, Body body) {
    size_t k = 0;
    for (; k + W <= n; k += W) body.template operator()<F>(k);
    for (; k < n; ++k) body.template operator()<float>(k);
  }

  // Always inlined into the matmul_tile cells: left to its heuristics, GCC
  // calls the 16-lane instantiation once per cell.
  [[gnu::always_inline]] static float Dot(const float* a, const float* b,
                                          size_t d) {
    F acc0{}, acc1{}, acc2{}, acc3{};
    size_t k = 0;
    for (; k + 4 * W <= d; k += 4 * W) {
      acc0 += Load<F>(a + k) * Load<F>(b + k);
      acc1 += Load<F>(a + k + W) * Load<F>(b + k + W);
      acc2 += Load<F>(a + k + 2 * W) * Load<F>(b + k + 2 * W);
      acc3 += Load<F>(a + k + 3 * W) * Load<F>(b + k + 3 * W);
    }
    for (; k + W <= d; k += W) acc0 += Load<F>(a + k) * Load<F>(b + k);
    if constexpr (kMaskedTail<W>) {
      if (k < d) {
        acc1 += MaskedTail<W>(a + k, d - k) * MaskedTail<W>(b + k, d - k);
      }
      return HorizontalSum<float, W>((acc0 + acc1) + (acc2 + acc3));
    }
    float r = HorizontalSum<float, W>((acc0 + acc1) + (acc2 + acc3));
    for (; k < d; ++k) r += a[k] * b[k];
    return r;
  }

  // Row and column blocks of 32, as in the scalar tier, so B rows stay hot
  // in L1 while a block of A rows streams over them; each cell is one Dot.
  static void MatMulTile(const float* a, size_t a_stride, size_t rows,
                         const float* b, size_t b_stride, size_t cols,
                         size_t d, float* c, size_t c_stride) {
    constexpr size_t kBlock = 32;
    for (size_t ib = 0; ib < rows; ib += kBlock) {
      const size_t i_end = std::min(rows, ib + kBlock);
      for (size_t jb = 0; jb < cols; jb += kBlock) {
        const size_t j_end = std::min(cols, jb + kBlock);
        for (size_t i = ib; i < i_end; ++i) {
          const float* arow = a + i * a_stride;
          float* crow = c + i * c_stride;
          for (size_t j = jb; j < j_end; ++j) {
            crow[j] = Dot(arow, b + j * b_stride, d);
          }
        }
      }
    }
  }

  static double SquaredNorm(const float* v, size_t d) {
    D acc0{}, acc1{};
    size_t k = 0;
    for (; k + W <= d; k += W) {
      const D x0 = Widen(Load<H>(v + k));
      const D x1 = Widen(Load<H>(v + k + W / 2));
      acc0 += x0 * x0;
      acc1 += x1 * x1;
    }
    double r = HorizontalSum<double, W / 2>(acc0 + acc1);
    for (; k < d; ++k) r += static_cast<double>(v[k]) * v[k];
    return r;
  }

  static float Manhattan(const float* a, const float* b, size_t d) {
    F acc0{}, acc1{};
    size_t k = 0;
    for (; k + 2 * W <= d; k += 2 * W) {
      acc0 += Abs(Load<F>(a + k) - Load<F>(b + k));
      acc1 += Abs(Load<F>(a + k + W) - Load<F>(b + k + W));
    }
    for (; k + W <= d; k += W) acc0 += Abs(Load<F>(a + k) - Load<F>(b + k));
    if constexpr (kMaskedTail<W>) {
      if (k < d) {
        acc1 += Abs(MaskedTail<W>(a + k, d - k) - MaskedTail<W>(b + k, d - k));
      }
      return HorizontalSum<float, W>(acc0 + acc1);
    }
    float r = HorizontalSum<float, W>(acc0 + acc1);
    for (; k < d; ++k) r += std::fabs(a[k] - b[k]);
    return r;
  }

  static void Scale(float* v, size_t d, float factor) {
    Each(d, [&]<typename V>(size_t k) {
      Store(v + k, Load<V>(v + k) * factor);
    });
  }

  static void ScaleCopy(const float* src, float* dst, size_t d, float factor) {
    Each(d, [&]<typename V>(size_t k) {
      Store(dst + k, Load<V>(src + k) * factor);
    });
  }

  static void CosineScaleRow(float* row, const float* inv_tgt, size_t m,
                             float si) {
    Each(m, [&]<typename V>(size_t k) {
      Store(row + k, Load<V>(row + k) * (si * Load<V>(inv_tgt + k)));
    });
  }

  static double Sum(const float* v, size_t d) {
    D acc0{}, acc1{};
    size_t k = 0;
    for (; k + W <= d; k += W) {
      acc0 += Widen(Load<H>(v + k));
      acc1 += Widen(Load<H>(v + k + W / 2));
    }
    double r = HorizontalSum<double, W / 2>(acc0 + acc1);
    for (; k < d; ++k) r += v[k];
    return r;
  }

  // Lane l keeps the largest value among indices ≡ l (mod W), starting from
  // -inf, so the lanes hold no NaN and their fold is the maximum value. A
  // NaN v[0] would win the scalar scan, so it takes the scalar path.
  static float Max(const float* v, size_t d) {
    float best = v[0];
    size_t k = 1;
    if (d >= W && !std::isnan(v[0])) {
      F acc = Splat<F>(-std::numeric_limits<float>::infinity());
      for (k = 0; k + W <= d; k += W) {
        const F chunk = Load<F>(v + k);
        acc = chunk > acc ? chunk : acc;
      }
      best = HalvingFold<float, W>(
          acc, [](auto lo, auto hi) { return hi > lo ? hi : lo; });
    }
    for (; k < d; ++k) {
      if (v[k] > best) best = v[k];
    }
    return best;
  }

  // Lane l keeps the best value among indices ≡ l (mod W) and, the compare
  // being strict, the first index attaining it; the lane scan breaks ties
  // toward the lower index, so the result is the scalar tier's.
  static size_t Argmax(const float* v, size_t d) {
    size_t best = 0;
    size_t k = 1;
    if (d >= 2 * W && !std::isnan(v[0])) {
      F vals = Splat<F>(-std::numeric_limits<float>::infinity());
      U idx;
      for (size_t l = 0; l < W; ++l) idx[l] = static_cast<uint32_t>(l);
      U cur = idx;
      for (k = 0; k + W <= d; k += W) {
        const F chunk = Load<F>(v + k);
        const I gt = chunk > vals;
        vals = gt ? chunk : vals;
        idx = gt ? cur : idx;
        cur += W;
      }
      float best_val = vals[0];
      best = idx[0];
      for (size_t l = 1; l < W; ++l) {
        if (vals[l] > best_val || (vals[l] == best_val && idx[l] < best)) {
          best_val = vals[l];
          best = idx[l];
        }
      }
    }
    for (; k < d; ++k) {
      if (v[k] > v[best]) best = k;
    }
    return best;
  }

  static void AccumulateMax(float* acc, const float* row, size_t d) {
    Each(d, [&]<typename V>(size_t k) {
      const V a = Load<V>(acc + k);
      const V r = Load<V>(row + k);
      Store(acc + k, r > a ? r : a);
    });
  }

  static void AccumulateCols(double* acc, const float* row, size_t d) {
    size_t k = 0;
    for (; k + W / 2 <= d; k += W / 2) {
      Store(acc + k, Load<D>(acc + k) + Widen(Load<H>(row + k)));
    }
    for (; k < d; ++k) acc[k] += row[k];
  }

  static void MulCols(float* dst, const float* src, const double* col_inv,
                      size_t d) {
    size_t k = 0;
    for (; k + W / 2 <= d; k += W / 2) {
      const D p = Widen(Load<H>(src + k)) * Load<D>(col_inv + k);
      Store(dst + k, __builtin_convertvector(p, H));
    }
    for (; k < d; ++k) dst[k] = static_cast<float>(src[k] * col_inv[k]);
  }

  static uint64_t MaskGt(const float* a, const float* b, size_t n) {
    uint64_t mask = 0;
    Each(n, [&]<typename V>(size_t k) {
      mask |= uint64_t{Gt(Load<V>(a + k), Load<V>(b + k))} << k;
    });
    return mask;
  }

  static uint64_t MaskGtScalar(const float* a, float threshold, size_t n) {
    uint64_t mask = 0;
    Each(n, [&]<typename V>(size_t k) {
      mask |= uint64_t{Gt(Load<V>(a + k), Splat<V>(threshold))} << k;
    });
    return mask;
  }
};

// The kernel table of the W-lane instantiation.
template <size_t W>
constexpr KernelOps VectorKernelOps(KernelTier tier, const char* name) {
  using K = VectorKernels<W>;
  return {.tier = tier, .name = name, .dot = K::Dot,
          .matmul_tile = K::MatMulTile, .squared_norm = K::SquaredNorm,
          .manhattan = K::Manhattan, .scale = K::Scale,
          .scale_copy = K::ScaleCopy, .cosine_scale_row = K::CosineScaleRow,
          .sum = K::Sum, .max = K::Max, .argmax = K::Argmax,
          .accumulate_max = K::AccumulateMax,
          .accumulate_cols = K::AccumulateCols, .mul_cols = K::MulCols,
          .mask_gt = K::MaskGt, .mask_gt_scalar = K::MaskGtScalar};
}

}  // namespace
}  // namespace entmatcher

#endif  // ENTMATCHER_LA_KERNELS_VECTOR_KERNELS_H_
