#include "matching/transforms.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "common/thread_pool.h"
#include "la/kernels/dispatch.h"
#include "la/ranking.h"
#include "la/topk.h"
#include "matching/row_layout.h"
#include "matching/sparse_transforms.h"

namespace entmatcher {

size_t TransformWorkspaceBytes(const MatchOptions& options, size_t rows,
                               size_t cols) {
  switch (options.transform) {
    case ScoreTransformKind::kRinf:
      return cols * rows * sizeof(float);  // reverse preference table P_ts
    case ScoreTransformKind::kSinkhorn:
      return rows * cols * sizeof(float);  // normalization double buffer
    case ScoreTransformKind::kNone:
    case ScoreTransformKind::kCsls:
    case ScoreTransformKind::kRinfWr:
    case ScoreTransformKind::kRinfPb:
      return 0;
  }
  return 0;
}

// The sparse-capable transforms, over either layout (row_layout.h). --------

namespace {

// CSLS and RInf-wr read one column statistic besides their rows, passed in:
// empty means "compute it from `rows`"; a row block passes the full matrix's.

template <typename Rows>
Status CslsRows(const Rows& rows, size_t k, std::span<const float> phi_t) {
  EM_RETURN_NOT_OK(ValidateScores(rows, "score transform"));
  if (k == 0) return Status::InvalidArgument("CSLS: k must be >= 1");

  const std::vector<float> phi_s = RowTopKMeans(rows, k);
  // Streaming column top-k mean — CSLS stays at a single-matrix footprint,
  // which is what keeps it memory-feasible at DWY100K scale in the paper's
  // Table 6 while RInf is not.
  std::vector<float> own;
  if (phi_t.empty()) phi_t = own = ColumnTopKMeans(rows, k);
  ForEachRow(rows, 16, [&](size_t i, auto values, auto cols) {
    const float pi = phi_s[i];
    for (size_t p = 0; p < values.size(); ++p) {
      values[p] = 2.0f * values[p] - pi - phi_t[cols[p]];
    }
  });
  return Status::OK();
}

template <typename Rows>
Status RinfRows(const Rows& rows, size_t k, Workspace* workspace) {
  EM_RETURN_NOT_OK(ValidateScores(rows, "score transform"));
  if (k == 0) return Status::InvalidArgument("RInf: k must be >= 1");
  if (rows.entries() == 0) return Status::OK();

  // k = 1 is Eq. (2)'s max; larger k averages the top-k reverse scores
  // (Appendix C's generalization).
  const std::vector<float> row_stat =
      k == 1 ? RowMaxes(rows) : RowTopKMeans(rows, k);
  const std::vector<float> col_stat =
      k == 1 ? ColumnMaxes(rows) : ColumnTopKMeans(rows, k);

  // Target-side preferences P_ts(v, u) = S(u, v) - row_stat[u] + 1 go to the
  // reverse table; the forward ones P_st(u, v) = S(u, v) - col_stat[v] + 1
  // replace the scores in place. Each worker writes its own rows' slots.
  EM_ASSIGN_OR_RETURN(ScratchMatrix reverse_lease,
                      AcquireReverseTable(rows, workspace));
  Matrix* reverse = &reverse_lease.get();
  ForEachRow(rows, 16, [&](size_t i, auto values, auto cols) {
    const auto slots = ReverseSlots(rows, reverse, i);
    const float shift = 1.0f - row_stat[i];
    for (size_t p = 0; p < values.size(); ++p) {
      slots(p) = values[p] + shift;
      values[p] = values[p] - col_stat[cols[p]] + 1.0f;
    }
  });

  // Rank both preference tables in place: two live score-size buffers total
  // (scores + reverse table), down from the three of the copy-out design.
  ParallelFor(0, rows.rows(), 4, [&](size_t begin, size_t end) {
    std::vector<uint64_t> scratch;
    for (size_t i = begin; i < end; ++i) {
      RankRowInPlace(rows.Values(i), &scratch);  // := R_st
    }
  });
  RankReverseTable(rows, reverse);  // := R_ts

  // out(u, v) = -(R_st(u, v) + R_ts(v, u)) / 2; smaller average rank is
  // better, so negate to keep "higher is better".
  ForEachRow(rows, 16, [&](size_t i, auto values, auto) {
    const auto slots = ReverseSlots(rows, reverse, i);
    for (size_t p = 0; p < values.size(); ++p) {
      values[p] = -0.5f * (values[p] + slots(p));
    }
  });
  return Status::OK();
}

template <typename Rows>
Status RinfWrRows(const Rows& rows, std::span<const float> col_max) {
  EM_RETURN_NOT_OK(ValidateScores(rows, "score transform"));
  const std::vector<float> row_max = RowMaxes(rows);
  std::vector<float> own;
  if (col_max.empty()) col_max = own = ColumnMaxes(rows);
  // (P_st + P_ts^T) / 2 = S - (row_max[u] + col_max[v]) / 2 + 1, computed
  // in place — this is what makes the -wr variant cheap.
  ForEachRow(rows, 16, [&](size_t i, auto values, auto cols) {
    const float half_row_max = 0.5f * row_max[i];
    for (size_t p = 0; p < values.size(); ++p) {
      values[p] = values[p] - half_row_max - 0.5f * col_max[cols[p]] + 1.0f;
    }
  });
  return Status::OK();
}

template <typename Rows>
Status RinfPbRows(const Rows& rows, size_t candidates) {
  EM_RETURN_NOT_OK(ValidateScores(rows, "score transform"));
  if (candidates == 0) {
    return Status::InvalidArgument("RInf-pb: candidates must be >= 1");
  }
  const size_t n = rows.rows();
  const size_t m = rows.cols();
  const size_t c = std::min(candidates, std::min(n, m));
  if (rows.entries() == 0) return Status::OK();

  const std::vector<float> row_max = RowMaxes(rows);
  const std::vector<float> col_max = ColumnMaxes(rows);

  // Top-C positions per source row under P_st ordering (= S - col_max).
  std::vector<uint32_t> src_cand(n * c);
  std::vector<size_t> src_len(n);
  ParallelFor(0, n, 8, [&](size_t begin, size_t end) {
    std::vector<float> adjusted;
    std::vector<uint32_t> idx;
    for (size_t i = begin; i < end; ++i) {
      const auto values = rows.Values(i);
      const auto cols = rows.Cols(i);
      adjusted.resize(values.size());
      for (size_t p = 0; p < values.size(); ++p) {
        adjusted[p] = values[p] - col_max[cols[p]];
      }
      src_len[i] = RowTopKPositions(adjusted, c, &idx);
      std::copy(idx.begin(), idx.begin() + src_len[i],
                src_cand.begin() + i * c);
    }
  });
  // Top-C source rows per target under P_ts ordering (= S - row_max).
  std::vector<uint32_t> tgt_cand(m * c);
  std::vector<size_t> tgt_len(m);
  TargetCandidates(rows, row_max, c, &tgt_cand, &tgt_len);

  // Reciprocal rank aggregation over the candidate blocks only; every other
  // entry gets a sentinel below every candidate score.
  const float sentinel = -2.0f * static_cast<float>(n + m);
  ForEachRow(rows, 16, [&](size_t i, auto values, auto cols) {
    std::fill(values.begin(), values.end(), sentinel);
    for (size_t p = 0; p < src_len[i]; ++p) {
      const uint32_t pos = src_cand[i * c + p];
      const size_t j = cols[pos];
      // Rank of source i within target j's candidate list (capped at c+1).
      size_t r_ts = c + 1;
      const uint32_t* tlist = tgt_cand.data() + j * c;
      for (size_t q = 0; q < tgt_len[j]; ++q) {
        if (tlist[q] == i) {
          r_ts = q + 1;
          break;
        }
      }
      values[pos] =
          -0.5f * (static_cast<float>(p + 1) + static_cast<float>(r_ts));
    }
  });
  return Status::OK();
}

// The dispatch both layouts share; Sinkhorn is per layout. `column_stat`
// goes to CSLS or RInf-wr (see above).
template <typename Rows>
Status ApplyRowsTransform(const Rows& rows, const MatchOptions& options,
                          Workspace* workspace,
                          std::span<const float> column_stat) {
  switch (options.transform) {
    case ScoreTransformKind::kNone:
      return Status::OK();
    case ScoreTransformKind::kCsls:
      return CslsRows(rows, options.csls_k, column_stat);
    case ScoreTransformKind::kRinf:
      return RinfRows(rows, options.rinf_k, workspace);
    case ScoreTransformKind::kRinfWr:
      return RinfWrRows(rows, column_stat);
    case ScoreTransformKind::kRinfPb:
      return RinfPbRows(rows, options.rinf_pb_candidates);
    case ScoreTransformKind::kSinkhorn:
      break;
  }
  return Status::InvalidArgument("unknown score transform");
}

}  // namespace

// Dense column side. ---------------------------------------------------------

void TargetCandidates(const DenseScoreRows& rows,
                      const std::vector<float>& row_max, size_t c,
                      std::vector<uint32_t>* candidates,
                      std::vector<size_t>* lengths) {
  const Matrix& scores = rows.scores();
  const size_t n = scores.rows();
  std::fill(lengths->begin(), lengths->end(), c);
  ParallelFor(0, scores.cols(), 8, [&](size_t begin, size_t end) {
    std::vector<float> adjusted(n);
    std::vector<uint32_t> idx;
    for (size_t j = begin; j < end; ++j) {
      for (size_t i = 0; i < n; ++i) {
        adjusted[i] = scores.At(i, j) - row_max[i];
      }
      RowTopKPositions(adjusted, c, &idx);
      std::copy(idx.begin(), idx.begin() + c, candidates->begin() + j * c);
    }
  });
}

// Dense entry points. --------------------------------------------------------

Status CslsTransformInPlace(Matrix* scores, size_t k) {
  return CslsRows(DenseScoreRows(*scores), k, {});
}

Status RinfTransformInPlace(Matrix* scores, size_t k, Workspace* workspace) {
  return RinfRows(DenseScoreRows(*scores), k, workspace);
}

Status RinfWrTransformInPlace(Matrix* scores) {
  return RinfWrRows(DenseScoreRows(*scores), {});
}

Status RinfPbTransformInPlace(Matrix* scores, size_t candidates) {
  return RinfPbRows(DenseScoreRows(*scores), candidates);
}

Status SinkhornTransformInPlace(Matrix* scores, size_t iterations,
                                double temperature, Workspace* workspace) {
  EM_RETURN_NOT_OK(ValidateScores(*scores, "score transform"));
  if (iterations == 0) {
    return Status::InvalidArgument("Sinkhorn: iterations must be >= 1");
  }
  if (temperature <= 0.0) {
    return Status::InvalidArgument("Sinkhorn: temperature must be > 0");
  }
  const size_t n = scores->rows();
  const size_t m = scores->cols();

  // Sinkhorn^0(S) = exp(S / t). Subtract the global max first for numeric
  // stability (a constant shift does not change the normalized result).
  // Per-row maxima combine exactly regardless of chunking, so a plain
  // parallel row sweep into per-row slots stays deterministic.
  const std::vector<float> row_max = RowMax(*scores);
  float global_max = row_max[0];
  for (float v : row_max) global_max = std::max(global_max, v);
  const float inv_t = static_cast<float>(1.0 / temperature);
  ParallelFor(0, n, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      for (float& v : scores->Row(i)) v = std::exp((v - global_max) * inv_t);
    }
  });

  // Double-buffered normalization, mirroring the out-of-place tensor ops of
  // the original framework's implementation. The second n x m buffer is what
  // pushes Sinkhorn past the memory budget at the paper's DWY100K scale
  // (Table 6, "Mem: No").
  EM_ASSIGN_OR_RETURN(ScratchMatrix buffer_lease,
                      ScratchMatrix::Acquire(workspace, n, m));
  Matrix& buffer = buffer_lease.get();
  const KernelOps& ops = ActiveKernels();
  std::vector<double> col_sums(m);
  for (size_t it = 0; it < iterations; ++it) {
    // Row normalization: scores -> buffer.
    ParallelFor(0, n, 16, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const float* src = scores->Row(i).data();
        const double sum = ops.sum(src, m);
        const float inv = sum > 0.0 ? static_cast<float>(1.0 / sum) : 0.0f;
        ops.scale_copy(src, buffer.Row(i).data(), m, inv);
      }
    });
    // Column normalization: buffer -> scores. Column sums are partitioned by
    // column — every worker owns a disjoint slice of col_sums and visits
    // rows in the serial order, keeping the accumulation bit-identical.
    ParallelFor(0, m, 256, [&](size_t col_begin, size_t col_end) {
      std::fill(col_sums.begin() + col_begin, col_sums.begin() + col_end, 0.0);
      for (size_t i = 0; i < n; ++i) {
        const float* row = buffer.Row(i).data();
        ops.accumulate_cols(col_sums.data() + col_begin, row + col_begin,
                            col_end - col_begin);
      }
      for (size_t j = col_begin; j < col_end; ++j) {
        col_sums[j] = col_sums[j] > 0.0 ? 1.0 / col_sums[j] : 0.0;
      }
    });
    ParallelFor(0, n, 16, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        ops.mul_cols(scores->Row(i).data(), buffer.Row(i).data(),
                     col_sums.data(), m);
      }
    });
  }
  return Status::OK();
}

Status ApplyScoreTransformInPlace(Matrix* scores, const MatchOptions& options,
                                  Workspace* workspace,
                                  std::span<const float> column_stat) {
  assert(column_stat.empty() || column_stat.size() == scores->cols());
  if (options.transform == ScoreTransformKind::kSinkhorn) {
    return SinkhornTransformInPlace(scores, options.sinkhorn_iterations,
                                    options.sinkhorn_temperature, workspace);
  }
  return ApplyRowsTransform(DenseScoreRows(*scores), options, workspace,
                            column_stat);
}

Status ApplySparseScoreTransformInPlace(SparseScores* scores,
                                        const MatchOptions& options,
                                        Workspace* workspace) {
  if (options.transform == ScoreTransformKind::kSinkhorn) {
    return Status::InvalidArgument(
        "Sinkhorn needs the full coupling matrix; it has no sparse "
        "variant — drop the candidate index for this transform");
  }
  return ApplyRowsTransform(CandidateScoreRows(*scores), options, workspace,
                            {});
}

// Consuming wrappers. --------------------------------------------------------

Result<Matrix> CslsTransform(Matrix scores, size_t k) {
  EM_RETURN_NOT_OK(CslsTransformInPlace(&scores, k));
  return scores;
}

Result<Matrix> RinfTransform(Matrix scores, size_t k) {
  EM_RETURN_NOT_OK(RinfTransformInPlace(&scores, k, nullptr));
  return scores;
}

Result<Matrix> RinfWrTransform(Matrix scores) {
  EM_RETURN_NOT_OK(RinfWrTransformInPlace(&scores));
  return scores;
}

Result<Matrix> RinfPbTransform(Matrix scores, size_t candidates) {
  EM_RETURN_NOT_OK(RinfPbTransformInPlace(&scores, candidates));
  return scores;
}

Result<Matrix> SinkhornTransform(Matrix scores, size_t iterations,
                                 double temperature) {
  EM_RETURN_NOT_OK(SinkhornTransformInPlace(&scores, iterations, temperature));
  return scores;
}

Result<Matrix> ApplyScoreTransform(Matrix scores, const MatchOptions& options) {
  EM_RETURN_NOT_OK(ApplyScoreTransformInPlace(&scores, options, nullptr));
  return scores;
}

}  // namespace entmatcher
