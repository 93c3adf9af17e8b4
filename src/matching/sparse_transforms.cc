#include "matching/sparse_transforms.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "la/ranking.h"
#include "la/topk.h"
#include "matching/row_layout.h"

namespace entmatcher {

// The CSR column side (row_layout.h). The transforms themselves, and
// ApplySparseScoreTransformInPlace, are the dense code run over candidate rows
// (transforms.cc).

namespace {

// Per column, the entry ids in ascending row order and their rows. Built
// serially; the per-column slices are then safe to process in parallel.
struct ColumnGather {
  std::vector<size_t> offsets;    // cols + 1
  std::vector<uint64_t> entries;  // entry ids, row-ascending per column
  std::vector<uint32_t> rows;     // the row of each gathered entry
};

ColumnGather GatherColumns(const SparseScores& scores) {
  ColumnGather g;
  const size_t m = scores.cols();
  const size_t nnz = scores.nnz();
  const uint32_t* cols = scores.col_indices();
  const std::vector<size_t>& offsets = scores.row_offsets();
  g.offsets.assign(m + 1, 0);
  for (size_t e = 0; e < nnz; ++e) ++g.offsets[cols[e] + 1];
  for (size_t c = 0; c < m; ++c) g.offsets[c + 1] += g.offsets[c];
  g.entries.resize(nnz);
  g.rows.resize(nnz);
  std::vector<size_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (size_t r = 0; r < scores.rows(); ++r) {
    for (size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      const size_t slot = cursor[cols[e]]++;
      g.entries[slot] = e;
      g.rows[slot] = static_cast<uint32_t>(r);
    }
  }
  return g;
}

}  // namespace

// A serial sweep in entry order visits every column's entries in ascending
// row order — the order the dense column statistics scan rows in.
std::vector<float> ColumnMaxes(const CandidateScoreRows& rows) {
  const SparseScores& scores = rows.scores();
  std::vector<float> out(scores.cols(),
                         -std::numeric_limits<float>::infinity());
  const float* values = scores.values();
  const uint32_t* cols = scores.col_indices();
  for (size_t e = 0; e < scores.nnz(); ++e) {
    if (values[e] > out[cols[e]]) out[cols[e]] = values[e];
  }
  return out;
}

// Heap sizes follow the per-column entry counts, which equal the dense
// min(k, rows) when lists are complete.
std::vector<float> ColumnTopKMeans(const CandidateScoreRows& rows, size_t k) {
  const SparseScores& scores = rows.scores();
  const float* values = scores.values();
  const uint32_t* cols = scores.col_indices();
  std::vector<size_t> sizes(scores.cols(), 0);
  for (size_t e = 0; e < scores.nnz(); ++e) ++sizes[cols[e]];
  for (size_t& size : sizes) size = std::min(k, size);
  ColumnTopKHeaps heaps(sizes);
  for (size_t e = 0; e < scores.nnz(); ++e) heaps.Offer(cols[e], values[e]);
  std::vector<float> out(scores.cols());
  for (size_t c = 0; c < out.size(); ++c) out[c] = heaps.Mean(c);
  return out;
}

// Each column's slots are gathered in row order, ranked as one row, and
// scattered back; gather slices are disjoint, so columns run in parallel.
void RankReverseTable(const CandidateScoreRows& rows, Matrix* table) {
  const ColumnGather gather = GatherColumns(rows.scores());
  float* slots = table->data();
  ParallelFor(0, rows.cols(), 4, [&](size_t begin, size_t end) {
    std::vector<float> column;
    std::vector<uint64_t> scratch;
    for (size_t c = begin; c < end; ++c) {
      const uint64_t* list = gather.entries.data() + gather.offsets[c];
      column.resize(gather.offsets[c + 1] - gather.offsets[c]);
      for (size_t q = 0; q < column.size(); ++q) column[q] = slots[list[q]];
      RankRowInPlace(column, &scratch);
      for (size_t q = 0; q < column.size(); ++q) slots[list[q]] = column[q];
    }
  });
}

void TargetCandidates(const CandidateScoreRows& rows,
                      const std::vector<float>& row_max, size_t c,
                      std::vector<uint32_t>* candidates,
                      std::vector<size_t>* lengths) {
  const ColumnGather gather = GatherColumns(rows.scores());
  const float* values = rows.scores().values();
  ParallelFor(0, rows.cols(), 8, [&](size_t begin, size_t end) {
    std::vector<float> adjusted;
    std::vector<uint32_t> idx;
    std::vector<float> top;
    for (size_t j = begin; j < end; ++j) {
      const size_t off = gather.offsets[j];
      adjusted.resize(gather.offsets[j + 1] - off);
      for (size_t q = 0; q < adjusted.size(); ++q) {
        adjusted[q] = values[gather.entries[off + q]] -
                      row_max[gather.rows[off + q]];
      }
      const size_t keep = RowTopKPositions(adjusted, c, &idx, &top);
      (*lengths)[j] = keep;
      for (size_t q = 0; q < keep; ++q) {
        (*candidates)[j * c + q] = gather.rows[off + idx[q]];
      }
    }
  });
}

bool TransformSupportsSparse(ScoreTransformKind kind) {
  switch (kind) {
    case ScoreTransformKind::kNone:
    case ScoreTransformKind::kCsls:
    case ScoreTransformKind::kRinf:
    case ScoreTransformKind::kRinfWr:
    case ScoreTransformKind::kRinfPb:
      return true;
    case ScoreTransformKind::kSinkhorn:
      return false;
  }
  return false;
}

size_t SparseTransformWorkspaceBytes(const MatchOptions& options, size_t nnz) {
  switch (options.transform) {
    case ScoreTransformKind::kRinf:
      return nnz * sizeof(float);  // reverse rank buffer r_ts
    case ScoreTransformKind::kNone:
    case ScoreTransformKind::kCsls:
    case ScoreTransformKind::kRinfWr:
    case ScoreTransformKind::kRinfPb:
    case ScoreTransformKind::kSinkhorn:
      return 0;
  }
  return 0;
}

}  // namespace entmatcher
