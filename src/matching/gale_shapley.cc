#include "matching/gale_shapley.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "la/ranking.h"

namespace entmatcher {

namespace {

// Columns whose keys are transposed together: 64 bytes of each score row
// per read, and a block of key rows that stays in cache until it is sorted.
constexpr size_t kColumnBlock = 16;

}  // namespace

Result<Assignment> GaleShapleyMatch(const Matrix& scores,
                                    Workspace* workspace) {
  if (scores.rows() == 0 || scores.cols() == 0) {
    return Status::InvalidArgument("GaleShapleyMatch: empty score matrix");
  }
  const size_t n = scores.rows();
  const size_t m = scores.cols();

  // Full preference tables for both sides — the source preference order,
  // the target preference order, and the target rank lookup. Materializing
  // all three is what stable-matching EA implementations do, and it is what
  // makes SMat the least space-efficient algorithm in the paper (Sec. 4.3;
  // infeasible at DWY100K scale in Table 6). Workspace leases register the
  // same byte total with MemoryTracker as the owned-vector fallback does, so
  // the peak metric is reuse-independent.
  std::optional<ScopedTrackedBytes> tracked;
  if (workspace == nullptr) {
    tracked.emplace((n * m + 2 * m * n) * sizeof(uint32_t));
  }
  EM_ASSIGN_OR_RETURN(ScratchIndices src_pref_lease,
                      ScratchIndices::Acquire(workspace, n * m));
  EM_ASSIGN_OR_RETURN(ScratchIndices tgt_pref_lease,
                      ScratchIndices::Acquire(workspace, m * n));
  EM_ASSIGN_OR_RETURN(ScratchIndices tgt_rank_lease,
                      ScratchIndices::Acquire(workspace, m * n));

  // src_pref[i * m + p] = p-th most preferred target of source i.
  const std::span<uint32_t> src_pref = src_pref_lease.get();
  ParallelFor(0, n, 8, [&](size_t begin, size_t end) {
    std::vector<uint64_t> scratch;
    for (size_t i = begin; i < end; ++i) {
      OrderDescending(scores.Row(i), src_pref.subspan(i * m, m), &scratch);
    }
  });
  // tgt_pref[j * n + p] = p-th most preferred source of target j;
  // tgt_rank[j * n + i] = rank of source i in target j's preferences
  // (lower = preferred); O(1) comparisons during proposals. Before it holds
  // ranks, a block of tgt_rank rows holds its columns' order keys,
  // transposed, so the target side needs no buffer of its own.
  const std::span<uint32_t> tgt_pref = tgt_pref_lease.get();
  const std::span<uint32_t> tgt_rank = tgt_rank_lease.get();
  ParallelFor(0, m, kColumnBlock, [&](size_t begin, size_t end) {
    std::vector<uint64_t> scratch;
    for (size_t block = begin; block < end; block += kColumnBlock) {
      const size_t block_end = std::min(end, block + kColumnBlock);
      for (size_t i = 0; i < n; ++i) {
        const std::span<const float> row = scores.Row(i);
        for (size_t j = block; j < block_end; ++j) {
          tgt_rank[j * n + i] = OrderKey(row[j]);
        }
      }
      for (size_t j = block; j < block_end; ++j) {
        const std::span<uint32_t> pref = tgt_pref.subspan(j * n, n);
        const std::span<uint32_t> rank = tgt_rank.subspan(j * n, n);
        OrderByKey(rank, pref, &scratch);
        for (size_t pos = 0; pos < n; ++pos) {
          rank[pref[pos]] = static_cast<uint32_t>(pos);
        }
      }
    }
  });

  std::vector<int32_t> partner_of_target(m, -1);
  std::vector<uint32_t> next_proposal(n, 0);
  Assignment assignment;
  assignment.target_of_source.assign(n, Assignment::kUnmatched);

  // Deferred acceptance: process free sources until each is matched or has
  // exhausted its list.
  std::vector<uint32_t> free_sources(n);
  std::iota(free_sources.begin(), free_sources.end(), 0u);
  while (!free_sources.empty()) {
    const uint32_t i = free_sources.back();
    if (next_proposal[i] >= m) {
      free_sources.pop_back();  // exhausted: stays unmatched
      continue;
    }
    const uint32_t j = src_pref[static_cast<size_t>(i) * m + next_proposal[i]++];
    const int32_t current = partner_of_target[j];
    if (current < 0) {
      partner_of_target[j] = static_cast<int32_t>(i);
      assignment.target_of_source[i] = static_cast<int32_t>(j);
      free_sources.pop_back();
    } else if (tgt_rank[static_cast<size_t>(j) * n + i] <
               tgt_rank[static_cast<size_t>(j) * n +
                        static_cast<size_t>(current)]) {
      // Target j upgrades to source i; the displaced source becomes free.
      partner_of_target[j] = static_cast<int32_t>(i);
      assignment.target_of_source[i] = static_cast<int32_t>(j);
      assignment.target_of_source[static_cast<size_t>(current)] =
          Assignment::kUnmatched;
      free_sources.back() = static_cast<uint32_t>(current);
    }
    // Otherwise i stays free and proposes to its next choice on the next
    // iteration.
  }
  return assignment;
}

}  // namespace entmatcher
