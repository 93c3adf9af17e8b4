#include "fleet/merge.h"

#include <algorithm>
#include <string>

namespace entmatcher {

namespace {

/// Shared preamble of every merge: non-empty parts, sane ranges, uniform
/// snapshot version. Fills `covered` (size total_rows) with the union of the
/// part ranges; full coverage is only enforced when !allow_partial — the
/// version guarantee is enforced unconditionally, degraded answers included.
Status CheckParts(size_t total_rows, const std::vector<RangePart>& parts,
                  bool allow_partial, std::vector<char>* covered) {
  if (parts.empty()) {
    return Status::Unavailable("merge: no shard answered any range");
  }
  const uint64_t version = parts.front().version;
  for (const RangePart& part : parts) {
    if (part.row_begin >= part.row_end || part.row_end > total_rows) {
      return Status::Internal(
          "merge: malformed part range " + std::to_string(part.row_begin) +
          ":" + std::to_string(part.row_end) + " over " +
          std::to_string(total_rows) + " rows");
    }
    if (part.version != version) {
      return Status::Unavailable(
          "merge: mixed snapshot versions v" + std::to_string(version) +
          " and v" + std::to_string(part.version) +
          " — refusing to splice answers across a swap; retry");
    }
  }
  covered->assign(total_rows, 0);
  for (const RangePart& part : parts) {
    std::fill(covered->begin() + part.row_begin,
              covered->begin() + part.row_end, 1);
  }
  const size_t missing = static_cast<size_t>(
      std::count(covered->begin(), covered->end(), 0));
  if (missing > 0 && !allow_partial) {
    return Status::Unavailable("merge: " + std::to_string(missing) +
                               " rows unanswered by any shard");
  }
  return Status::OK();
}

/// The sorted disjoint [lo, hi) intervals of the covered mask.
std::vector<std::pair<size_t, size_t>> CoverageIntervals(
    const std::vector<char>& covered) {
  std::vector<std::pair<size_t, size_t>> intervals;
  size_t row = 0;
  while (row < covered.size()) {
    if (!covered[row]) {
      ++row;
      continue;
    }
    size_t end = row;
    while (end < covered.size() && covered[end]) ++end;
    intervals.push_back({row, end});
    row = end;
  }
  return intervals;
}

Result<PartialMerge> MergeAssignmentsImpl(size_t total_rows,
                                          const std::vector<RangePart>& parts,
                                          bool allow_partial) {
  std::vector<char> covered;
  EM_RETURN_NOT_OK(CheckParts(total_rows, parts, allow_partial, &covered));
  PartialMerge out;
  // Uncovered rows (partial mode only) stay -1: indistinguishable from "no
  // match" by value alone, which is why the response-level coverage
  // annotation exists.
  out.values.assign(total_rows, -1);
  std::vector<char> filled(total_rows, 0);
  for (const RangePart& part : parts) {
    const size_t rows = part.row_end - part.row_begin;
    if (part.values.size() != rows) {
      return Status::Internal(
          "merge: assignment part carries " +
          std::to_string(part.values.size()) + " rows for range " +
          std::to_string(part.row_begin) + ":" +
          std::to_string(part.row_end));
    }
    for (size_t i = 0; i < rows; ++i) {
      const size_t row = part.row_begin + i;
      if (filled[row] && out.values[row] != part.values[i]) {
        return Status::Internal(
            "merge: replicas disagree on row " + std::to_string(row) +
            " at the same snapshot version (" +
            std::to_string(out.values[row]) + " vs " +
            std::to_string(part.values[i]) + ")");
      }
      out.values[row] = part.values[i];
      filled[row] = 1;
    }
  }
  out.coverage = CoverageIntervals(covered);
  out.complete = out.coverage.size() == 1 && out.coverage[0].first == 0 &&
                 out.coverage[0].second == total_rows;
  return out;
}

Result<PartialMerge> MergeTopKImpl(size_t total_rows,
                                   const std::vector<RangePart>& parts,
                                   bool allow_partial) {
  std::vector<char> covered;
  EM_RETURN_NOT_OK(CheckParts(total_rows, parts, allow_partial, &covered));
  // Effective k: uniform across parts by construction (every shard clamps
  // the same requested k against the same target row count).
  size_t k_eff = 0;
  for (const RangePart& part : parts) {
    const size_t rows = part.row_end - part.row_begin;
    if (part.values.size() % rows != 0 ||
        part.scores.size() != part.values.size()) {
      return Status::Internal("merge: ragged top-k part for range " +
                              std::to_string(part.row_begin) + ":" +
                              std::to_string(part.row_end));
    }
    const size_t part_k = part.values.size() / rows;
    if (k_eff == 0) k_eff = part_k;
    if (part_k != k_eff) {
      return Status::Internal("merge: parts disagree on effective k (" +
                              std::to_string(k_eff) + " vs " +
                              std::to_string(part_k) + ")");
    }
  }
  if (k_eff == 0) {
    return Status::Internal("merge: top-k parts carry no entries");
  }

  PartialMerge out;
  out.values.assign(total_rows * k_eff, -1);
  struct Candidate {
    float score;
    int32_t id;
  };
  std::vector<Candidate> row_pool;
  for (size_t row = 0; row < total_rows; ++row) {
    if (!covered[row]) continue;  // partial mode: leave the -1 placeholders
    // K-way merge of every part covering this row: collect, order by the
    // serving tie-break (score desc, id asc — RowTopKIndices's order), drop
    // duplicate ids (hedged replicas answer identical lists), keep k_eff.
    row_pool.clear();
    for (const RangePart& part : parts) {
      if (row < part.row_begin || row >= part.row_end) continue;
      const size_t offset = (row - part.row_begin) * k_eff;
      for (size_t j = 0; j < k_eff; ++j) {
        row_pool.push_back(
            {part.scores[offset + j], part.values[offset + j]});
      }
    }
    std::stable_sort(row_pool.begin(), row_pool.end(),
                     [](const Candidate& a, const Candidate& b) {
                       if (a.score != b.score) return a.score > b.score;
                       return a.id < b.id;
                     });
    size_t kept = 0;
    for (const Candidate& candidate : row_pool) {
      if (kept > 0 && out.values[row * k_eff + kept - 1] == candidate.id) {
        continue;  // the same entry from a replica's duplicate list
      }
      out.values[row * k_eff + kept] = candidate.id;
      if (++kept == k_eff) break;
    }
    if (kept != k_eff) {
      return Status::Internal("merge: row " + std::to_string(row) +
                              " merged to " + std::to_string(kept) +
                              " entries, expected " + std::to_string(k_eff));
    }
  }
  out.coverage = CoverageIntervals(covered);
  out.complete = out.coverage.size() == 1 && out.coverage[0].first == 0 &&
                 out.coverage[0].second == total_rows;
  return out;
}

}  // namespace

Result<std::vector<int32_t>> MergeAssignments(
    size_t total_rows, const std::vector<RangePart>& parts) {
  EM_ASSIGN_OR_RETURN(PartialMerge merged,
                      MergeAssignmentsImpl(total_rows, parts, false));
  return std::move(merged.values);
}

Result<std::vector<int32_t>> MergeTopK(size_t total_rows,
                                       const std::vector<RangePart>& parts) {
  EM_ASSIGN_OR_RETURN(PartialMerge merged,
                      MergeTopKImpl(total_rows, parts, false));
  return std::move(merged.values);
}

Result<PartialMerge> MergeAssignmentsPartial(
    size_t total_rows, const std::vector<RangePart>& parts) {
  return MergeAssignmentsImpl(total_rows, parts, true);
}

Result<PartialMerge> MergeTopKPartial(size_t total_rows,
                                      const std::vector<RangePart>& parts) {
  return MergeTopKImpl(total_rows, parts, true);
}

}  // namespace entmatcher
