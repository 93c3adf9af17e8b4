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
//    exactly as by the scalar `>`.
//  - Each `matmul_tile` cell is one lane of an outer product that adds its
//    products in k order, the order of Dot (kernels_scalar.cc). No multiply
//    is fused into its add: the library builds with -ffp-contract=off, so
//    although the x86 tiers build with -mfma, the compiler emits no FMA
//    (CI counts them in the tier objects). With contraction a cell would
//    round once per k step instead of twice and leave Dot's bits.
//  - The reductions (squared_norm, sum, manhattan) hold dispatch.h's 16
//    lanes in 16 / N vectors of N lanes and fold them in its order
//    (LaneSum), whatever W is.
//
// Only one helper depends on the ISA, chosen by the target macros: GtBits
// (the lane mask of a compare).

#ifndef ENTMATCHER_LA_KERNELS_VECTOR_KERNELS_H_
#define ENTMATCHER_LA_KERNELS_VECTOR_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

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

// The ISA helper: bit l set iff a[l] > b[l], the ordered compare of the
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

template <size_t W>
struct VectorKernels {
  using F = Vec<float, W>;
  using I = Vec<int32_t, W>;
  using U = Vec<uint32_t, W>;
  using H = Vec<float, W / 2>;   // converts to and from D
  using D = Vec<double, W / 2>;  // the bytes of one F

  // The floats at p as V: one double, or a D converted lane by lane (GCC 12
  // lowers __builtin_convertvector here to half-width converts plus an
  // insert, this to one vcvtps2pd).
  template <typename V = D>
  static V Widen(const float* p) {
    if constexpr (std::is_same_v<V, double>) {
      return *p;
    } else {
      return [h = Load<H>(p)]<size_t... L>(std::index_sequence<L...>) {
        return D{static_cast<double>(h[L])...};
      }(std::make_index_sequence<W / 2>());
    }
  }

  static F Abs(F x) {
    return reinterpret_cast<F>(reinterpret_cast<I>(x) & 0x7FFFFFFF);
  }
  static float Abs(float x) { return std::fabs(x); }

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

  // The matmul tile as an outer product. Up to kBlockCols target rows are
  // copied into a k-major block (block[k * kBlockCols + j] = b_j[k]); each
  // group of 4 source rows walks it in strips of 2W columns with 4 x 2 lane
  // accumulators, broadcasting one element per source row into two
  // multiplies and two adds per k step. Each lane sums one cell from k = 0
  // upward, each product rounded before its add (-ffp-contract=off): Dot's
  // loop, for every d, row tail and column tail. The block is the call's
  // own, sized by d alone: a Workspace lease would move a query's arena
  // high-water.
  static constexpr size_t kBlockCols = 64;  // a whole number of strips

  static void MatMulTile(const float* a, size_t a_stride, size_t rows,
                         const float* b, size_t b_stride, size_t cols,
                         size_t d, float* c, size_t c_stride) {
    // Strips<R> for R = 1..4 rows; the last group takes rows % 4.
    constexpr void (*kStrips[])(const float*, size_t, const float*, size_t,
                                size_t, float*, size_t) = {
        nullptr, Strips<1>, Strips<2>, Strips<3>, Strips<4>};
    // Strip lanes past the last column read what an earlier block left
    // there (or the initial zeros) and are never stored.
    std::vector<float> block(kBlockCols * d);
    for (size_t jb = 0; jb < cols; jb += kBlockCols) {
      const size_t width = std::min(kBlockCols, cols - jb);
      for (size_t j = 0; j < width; ++j) {
        const float* brow = b + (jb + j) * b_stride;
        for (size_t k = 0; k < d; ++k) block[k * kBlockCols + j] = brow[k];
      }
      for (size_t i = 0; i < rows; i += 4) {
        kStrips[std::min<size_t>(4, rows - i)](a + i * a_stride, a_stride,
                                               block.data(), d, width,
                                               c + i * c_stride + jb, c_stride);
      }
    }
  }

  // R source rows against the block's first `width` columns.
  template <size_t R>
  static void Strips(const float* a, size_t a_stride, const float* block,
                     size_t d, size_t width, float* c, size_t c_stride) {
    for (size_t s = 0; s < width; s += 2 * W) {
      F acc[R][2] = {};
      const float* bk = block + s;
      for (size_t k = 0; k < d; ++k, bk += kBlockCols) {
        const F b0 = Load<F>(bk);
        const F b1 = Load<F>(bk + W);
#pragma GCC unroll 4
        for (size_t r = 0; r < R; ++r) {
          const F x = Splat<F>(a[r * a_stride + k]);
          acc[r][0] += x * b0;
          acc[r][1] += x * b1;
        }
      }
      const size_t live = std::min(2 * W, width - s);
#pragma GCC unroll 4
      for (size_t r = 0; r < R; ++r) {
        float* out = c + r * c_stride + s;
        if (live == 2 * W) {
          Store(out, acc[r][0]);
          Store(out + W, acc[r][1]);
        } else {
          float lanes[2 * W];
          Store(lanes, acc[r][0]);
          Store(lanes + W, acc[r][1]);
          std::copy_n(lanes, live, out);
        }
      }
    }
  }

  // Folds n vectors upper half onto lower, acc[i] += acc[i + n / 2], until
  // one is left: HalvingFold across vectors instead of lanes.
  template <typename V, size_t n>
  static V FoldVectors(V* acc) {
    if constexpr (n == 1) {
      return acc[0];
    } else {
#pragma GCC unroll 8
      for (size_t i = 0; i < n / 2; ++i) acc[i] += acc[i + n / 2];
      return FoldVectors<V, n / 2>(acc);
    }
  }

  // dispatch.h's lane order over d terms of type T, its 16 lanes held in
  // kVecs vectors V of N lanes: term.template operator()<V>(k) gives the
  // terms k to k + N - 1, <T>(k) the term k alone. Vector i holds lanes
  // iN to iN + N - 1, so FoldVectors and then HalvingFold add lane l + 8,
  // + 4, + 2, + 1 as LaneSum in kernels_scalar.cc does. Unrolled (the
  // pragmas), the vectors stay in registers.
  template <typename T, typename V, typename Term>
  static T LaneSum(size_t d, Term term) {
    constexpr size_t N = sizeof(V) / sizeof(T);
    constexpr size_t kVecs = 16 / N;
    V acc[kVecs] = {};
    size_t k = 0;
    for (; k + 16 <= d; k += 16) {
#pragma GCC unroll 16
      for (size_t i = 0; i < kVecs; ++i) {
        acc[i] += term.template operator()<V>(k + i * N);
      }
    }
    T sum = HorizontalSum<T, N>(FoldVectors<V, kVecs>(acc));
    for (; k < d; ++k) sum += term.template operator()<T>(k);
    return sum;
  }

  static double SquaredNorm(const float* v, size_t d) {
    return LaneSum<double, D>(d, [v]<typename V>(size_t k) {
      const V x = Widen<V>(v + k);
      return x * x;
    });
  }

  static float Manhattan(const float* a, const float* b, size_t d) {
    return LaneSum<float, F>(d, [a, b]<typename V>(size_t k) {
      return Abs(Load<V>(a + k) - Load<V>(b + k));
    });
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
    return LaneSum<double, D>(
        d, [v]<typename V>(size_t k) { return Widen<V>(v + k); });
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
      Store(acc + k, Load<D>(acc + k) + Widen(row + k));
    }
    for (; k < d; ++k) acc[k] += row[k];
  }

  static void MulCols(float* dst, const float* src, const double* col_inv,
                      size_t d) {
    size_t k = 0;
    for (; k + W / 2 <= d; k += W / 2) {
      const D p = Widen(src + k) * Load<D>(col_inv + k);
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
  return {.tier = tier, .name = name, .matmul_tile = K::MatMulTile,
          .squared_norm = K::SquaredNorm, .manhattan = K::Manhattan,
          .scale = K::Scale, .scale_copy = K::ScaleCopy,
          .cosine_scale_row = K::CosineScaleRow,
          .sum = K::Sum, .max = K::Max, .argmax = K::Argmax,
          .accumulate_max = K::AccumulateMax,
          .accumulate_cols = K::AccumulateCols, .mul_cols = K::MulCols,
          .mask_gt = K::MaskGt, .mask_gt_scalar = K::MaskGtScalar};
}

}  // namespace
}  // namespace entmatcher

#endif  // ENTMATCHER_LA_KERNELS_VECTOR_KERNELS_H_
