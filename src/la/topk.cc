#include "la/topk.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/thread_pool.h"
#include "la/kernels/dispatch.h"

namespace entmatcher {

namespace {

// The row top-k selection: vals[0, kk) sorted by (value desc, index asc),
// guarded by a threshold filter. Most elements fail `v > vals[kk-1]` and are
// skipped 64 at a time via mask_gt_scalar; survivors are inserted by
// shifting. The scan runs in ascending index order and both the admission
// test and the shift compare strictly, so an element never displaces an
// equal-valued earlier index: vals[0, kk) are the kk largest values of the
// row in descending order and sel[0, kk) their indices, ties by ascending
// index. `sel` may be null when only the values are wanted; kk <= m.
void SelectTopK(const float* row, size_t m, size_t kk, float* vals,
                uint32_t* sel) {
  if (kk == 0) return;
  const KernelOps& ops = ActiveKernels();
  const auto insert = [&](size_t pos, float v, size_t index) {
    while (pos > 0 && vals[pos - 1] < v) {
      vals[pos] = vals[pos - 1];
      if (sel != nullptr) sel[pos] = sel[pos - 1];
      --pos;
    }
    vals[pos] = v;
    if (sel != nullptr) sel[pos] = static_cast<uint32_t>(index);
  };
  for (size_t i = 0; i < kk; ++i) insert(i, row[i], i);
  float threshold = vals[kk - 1];
  for (size_t base = kk; base < m; base += 64) {
    const size_t len = std::min<size_t>(64, m - base);
    uint64_t mask = ops.mask_gt_scalar(row + base, threshold, len);
    while (mask != 0) {
      const size_t c = base + static_cast<size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      if (!(row[c] > threshold)) continue;  // threshold moved since the compare
      insert(kk - 1, row[c], c);
      threshold = vals[kk - 1];
    }
  }
}

}  // namespace

float RowMax(std::span<const float> row) {
  assert(!row.empty());
  return ActiveKernels().max(row.data(), row.size());
}

size_t RowArgmax(std::span<const float> row) {
  assert(!row.empty());
  return ActiveKernels().argmax(row.data(), row.size());
}

float RowTopKMean(std::span<const float> row, size_t k,
                  std::vector<float>* scratch) {
  assert(k >= 1 && !row.empty());
  const size_t kk = std::min(k, row.size());
  scratch->resize(kk);
  SelectTopK(row.data(), row.size(), kk, scratch->data(), nullptr);
  const double sum = std::accumulate(scratch->begin(), scratch->end(), 0.0);
  return static_cast<float>(sum / static_cast<double>(kk));
}

size_t RowTopKPositions(std::span<const float> row, size_t k,
                        std::vector<uint32_t>* positions,
                        std::vector<float>* values) {
  const size_t kk = std::min(k, row.size());
  positions->resize(kk);
  values->resize(kk);
  SelectTopK(row.data(), row.size(), kk, values->data(), positions->data());
  return kk;
}

ColumnTopKHeaps::ColumnTopKHeaps(const std::vector<size_t>& sizes)
    : offsets_(sizes.size() + 1, 0),
      roots_(sizes.size(), -std::numeric_limits<float>::infinity()) {
  for (size_t c = 0; c < sizes.size(); ++c) {
    offsets_[c + 1] = offsets_[c] + sizes[c];
  }
  heaps_.assign(offsets_.back(), -std::numeric_limits<float>::infinity());
}

float ColumnTopKHeaps::Mean(size_t c) const {
  const size_t kk = offsets_[c + 1] - offsets_[c];
  if (kk == 0) return 0.0f;
  double sum = 0.0;
  for (size_t i = offsets_[c]; i < offsets_[c + 1]; ++i) sum += heaps_[i];
  return static_cast<float>(sum / static_cast<double>(kk));
}

std::vector<float> ColumnTopKHeaps::Means() const {
  std::vector<float> out(roots_.size());
  for (size_t c = 0; c < out.size(); ++c) out[c] = Mean(c);
  return out;
}

void ColumnTopKHeaps::OfferRows(const Matrix& rows) {
  assert(rows.cols() == roots_.size());
  const KernelOps& ops = ActiveKernels();
  // Workers own disjoint column ranges and scan rows top-to-bottom, so each
  // heap sees exactly the serial insertion sequence. The `v > root`
  // admission test runs through mask_gt against the contiguous roots.
  ParallelFor(0, rows.cols(), 64, [&](size_t col_begin, size_t col_end) {
    for (size_t r = 0; r < rows.rows(); ++r) {
      const float* row = rows.Row(r).data();
      for (size_t base = col_begin; base < col_end; base += 64) {
        const size_t len = std::min<size_t>(64, col_end - base);
        uint64_t mask = ops.mask_gt(row + base, roots() + base, len);
        while (mask != 0) {
          const size_t c = base + static_cast<size_t>(std::countr_zero(mask));
          mask &= mask - 1;
          Replace(c, row[c]);
        }
      }
    }
  });
}

std::vector<uint32_t> RowArgmax(const Matrix& scores) {
  assert(scores.cols() > 0);
  std::vector<uint32_t> out(scores.rows());
  ParallelFor(0, scores.rows(), 32, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      out[r] = static_cast<uint32_t>(RowArgmax(scores.Row(r)));
    }
  });
  return out;
}

std::vector<float> RowMax(const Matrix& scores) {
  assert(scores.cols() > 0);
  std::vector<float> out(scores.rows());
  ParallelFor(0, scores.rows(), 32, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) out[r] = RowMax(scores.Row(r));
  });
  return out;
}

void AccumulateColMax(const Matrix& rows, std::span<float> acc) {
  assert(acc.size() == rows.cols());
  const KernelOps& ops = ActiveKernels();
  // Partitioned by column so every worker owns a disjoint slice of `acc` and
  // visits rows in the serial order (max is exact either way).
  ParallelFor(0, rows.cols(), 256, [&](size_t col_begin, size_t col_end) {
    for (size_t r = 0; r < rows.rows(); ++r) {
      const float* row = rows.Row(r).data();
      ops.accumulate_max(acc.data() + col_begin, row + col_begin,
                         col_end - col_begin);
    }
  });
}

std::vector<float> ColMax(const Matrix& scores) {
  assert(scores.rows() > 0);
  std::vector<float> out(scores.cols(), -std::numeric_limits<float>::infinity());
  AccumulateColMax(scores, out);
  return out;
}

std::vector<float> RowTopKMean(const Matrix& scores, size_t k) {
  assert(k >= 1);
  std::vector<float> out(scores.rows());
  ParallelFor(0, scores.rows(), 16, [&](size_t begin, size_t end) {
    std::vector<float> buf;
    for (size_t r = begin; r < end; ++r) {
      out[r] = RowTopKMean(scores.Row(r), k, &buf);
    }
  });
  return out;
}

std::vector<float> ColTopKMean(const Matrix& scores, size_t k) {
  assert(k >= 1);
  ColumnTopKHeaps heaps(
      std::vector<size_t>(scores.cols(), std::min(k, scores.rows())));
  heaps.OfferRows(scores);
  return heaps.Means();
}

std::vector<uint32_t> RowTopKIndices(const Matrix& scores, size_t k) {
  assert(k >= 1);
  const size_t kk = std::min(k, scores.cols());
  std::vector<uint32_t> out(scores.rows() * kk);
  ParallelFor(0, scores.rows(), 16, [&](size_t begin, size_t end) {
    std::vector<float> vals(kk);
    for (size_t r = begin; r < end; ++r) {
      SelectTopK(scores.Row(r).data(), scores.cols(), kk, vals.data(),
                 out.data() + r * kk);
    }
  });
  return out;
}

double MeanRowTopKStd(const Matrix& scores, size_t k) {
  assert(k >= 1);
  const size_t kk = std::min(k, scores.cols());
  if (kk < 2 || scores.rows() == 0) return 0.0;
  // Per-row partials accumulated by fixed 64-row blocks, then combined
  // serially, so the double summation order is independent of thread count.
  constexpr size_t kBlock = 64;
  const size_t num_blocks = (scores.rows() + kBlock - 1) / kBlock;
  std::vector<double> partial(num_blocks, 0.0);
  ParallelFor(0, num_blocks, 1, [&](size_t block_begin, size_t block_end) {
    std::vector<float> buf(kk);
    for (size_t b = block_begin; b < block_end; ++b) {
      const size_t row_end = std::min(scores.rows(), (b + 1) * kBlock);
      for (size_t r = b * kBlock; r < row_end; ++r) {
        SelectTopK(scores.Row(r).data(), scores.cols(), kk, buf.data(),
                   nullptr);
        double mean = std::accumulate(buf.begin(), buf.end(), 0.0) /
                      static_cast<double>(kk);
        double var = 0.0;
        for (float v : buf) var += (v - mean) * (v - mean);
        var /= static_cast<double>(kk);
        partial[b] += std::sqrt(var);
      }
    }
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total / static_cast<double>(scores.rows());
}

}  // namespace entmatcher
