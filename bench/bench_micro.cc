// Google-benchmark microbenchmarks of the library's computational kernels:
// similarity matrix construction, CSLS scaling, ranking, Sinkhorn rounds,
// the LAP solver, and Gale–Shapley. These are the building blocks whose
// costs aggregate into the paper's efficiency figures.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "la/ranking.h"
#include "la/similarity.h"
#include "la/topk.h"
#include "matching/gale_shapley.h"
#include "matching/hungarian_matcher.h"
#include "matching/transforms.h"

namespace entmatcher {
namespace {

Matrix RandomMatrix(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  Matrix out(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : out.Row(i)) v = static_cast<float>(rng.NextGaussian());
  }
  return out;
}

void BM_CosineSimilarity(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix src = RandomMatrix(n, 64, 1);
  const Matrix tgt = RandomMatrix(n, 64, 2);
  for (auto _ : state) {
    auto s = ComputeSimilarity(src, tgt, SimilarityMetric::kCosine);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CosineSimilarity)->Arg(256)->Arg(512)->Arg(1024);

void BM_RowArgmax(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix s = RandomMatrix(n, n, 3);
  for (auto _ : state) {
    auto idx = RowArgmax(s);
    benchmark::DoNotOptimize(idx);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_RowArgmax)->Arg(512)->Arg(1024);

void BM_RowTopKMean(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix s = RandomMatrix(n, n, 4);
  for (auto _ : state) {
    auto phi = RowTopKMean(s, 10);
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(BM_RowTopKMean)->Arg(512)->Arg(1024);

// Times a copy plus the in-place ranking, as RInf ranks a fresh table.
void BM_RowRankMatrixInPlace(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix s = RandomMatrix(n, n, 5);
  for (auto _ : state) {
    Matrix r = s;
    RowRankMatrixInPlace(&r);
    benchmark::DoNotOptimize(r.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RowRankMatrixInPlace)->Arg(512)->Arg(1024);

void BM_CslsTransform(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix s = RandomMatrix(n, n, 6);
  for (auto _ : state) {
    auto out = CslsTransform(s, 10);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CslsTransform)->Arg(512)->Arg(1024);

void BM_SinkhornTransform(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix s = RandomMatrix(n, n, 7);
  for (auto _ : state) {
    auto out = SinkhornTransform(s, 20, 0.05);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SinkhornTransform)->Arg(512)->Arg(1024);

void BM_HungarianMatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix s = RandomMatrix(n, n, 8);
  for (auto _ : state) {
    auto a = HungarianMatch(s);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_HungarianMatch)->Arg(256)->Arg(512);

void BM_GaleShapleyMatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix s = RandomMatrix(n, n, 9);
  for (auto _ : state) {
    auto a = GaleShapleyMatch(s);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GaleShapleyMatch)->Arg(256)->Arg(512);

}  // namespace
}  // namespace entmatcher

BENCHMARK_MAIN();
