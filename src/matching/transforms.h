#ifndef ENTMATCHER_MATCHING_TRANSFORMS_H_
#define ENTMATCHER_MATCHING_TRANSFORMS_H_

#include <span>

#include "common/status.h"
#include "la/matrix.h"
#include "la/workspace.h"
#include "matching/types.h"

namespace entmatcher {

// In-place transform stages. -------------------------------------------------
//
// Every transform rewrites the score matrix in place and draws any
// matrix-scale scratch it needs from the caller's Workspace arena (plain
// owned temporaries when `workspace` is null), declaring the requirement up
// front through TransformWorkspaceBytes. This is the engine's hot path: a
// warm MatchEngine runs these stages allocation-free.

/// Matrix-scale scratch bytes the configured transform acquires beyond the
/// score matrix itself, for an (rows × cols) input. O(rows + cols) vector
/// scratch is excluded — only score-matrix-sized buffers count, matching
/// what the paper's memory columns measure (Fig. 5b, Table 6). Used by
/// MatchEngine to pre-check a query against the workspace budget.
size_t TransformWorkspaceBytes(const MatchOptions& options, size_t rows,
                               size_t cols);

/// Applies options.transform to `scores` in place. Bit-identical to the
/// consuming ApplyScoreTransform at every thread count.
///
/// A non-empty `column_stat` (one entry per column) makes `scores` a block
/// of a larger matrix's rows for CSLS or RInf-wr: it is the statistic over
/// all of that matrix's columns the transform reads (the column top-k mean,
/// the column max), and the block comes out bit-identical to the same rows
/// of the whole matrix's transform.
Status ApplyScoreTransformInPlace(Matrix* scores, const MatchOptions& options,
                                  Workspace* workspace = nullptr,
                                  std::span<const float> column_stat = {});

/// CSLS (paper Alg. 4): scores := 2*S - phi_s - phi_t^T with phi the mean of
/// the top-k scores per row / per column. k >= 1. No matrix-scale scratch.
Status CslsTransformInPlace(Matrix* scores, size_t k);

/// RInf (paper Alg. 5): reciprocal preference modeling followed by ranking
/// aggregation; scores := -(R_st + R_ts^T)/2 so that higher is better.
/// Needs one cols×rows scratch matrix (the reverse preference table) — the
/// O(n^2) extra buffer the paper charges RInf with. `k` generalizes
/// Eq. (2)'s max to a top-k mean (k = 1 reproduces the original design).
Status RinfTransformInPlace(Matrix* scores, size_t k,
                            Workspace* workspace = nullptr);

/// RInf-wr: reciprocal preference aggregation *without* the ranking step —
/// the memory/time-saving variant of [62]; scores := (P_st + P_ts^T)/2.
/// No matrix-scale scratch (that is the point of the variant).
Status RinfWrTransformInPlace(Matrix* scores);

/// RInf-pb: reciprocal ranking restricted to each entity's top-`candidates`
/// partners (progressive blocking). Non-candidates receive a sentinel score
/// below every candidate score. Candidate lists are O((rows+cols)*candidates)
/// — no matrix-scale scratch.
Status RinfPbTransformInPlace(Matrix* scores, size_t candidates);

/// Sinkhorn (paper Alg. 6 / Eq. 3): l rounds of alternating row/column
/// normalization of exp(S / temperature). Needs one rows×cols scratch matrix
/// (the double buffer that pushes Sinkhorn past the paper's DWY100K memory
/// budget). iterations >= 1, temperature > 0.
Status SinkhornTransformInPlace(Matrix* scores, size_t iterations,
                                double temperature,
                                Workspace* workspace = nullptr);

// Consuming conveniences. ----------------------------------------------------
//
// Thin wrappers over the in-place stages for callers that hold a throwaway
// score matrix (tests, benches, notebooks). `scores` is taken by value and
// rewritten — no hidden second copy.

/// Applies the configured score transform; higher is better in every case.
Result<Matrix> ApplyScoreTransform(Matrix scores, const MatchOptions& options);

Result<Matrix> CslsTransform(Matrix scores, size_t k);
Result<Matrix> RinfTransform(Matrix scores, size_t k = 1);
Result<Matrix> RinfWrTransform(Matrix scores);
Result<Matrix> RinfPbTransform(Matrix scores, size_t candidates);
Result<Matrix> SinkhornTransform(Matrix scores, size_t iterations,
                                 double temperature);

}  // namespace entmatcher

#endif  // ENTMATCHER_MATCHING_TRANSFORMS_H_
