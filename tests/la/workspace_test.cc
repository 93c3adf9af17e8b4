#include "la/workspace.h"

#include <gtest/gtest.h>

#include "common/memory_tracker.h"

namespace entmatcher {
namespace {

TEST(WorkspaceTest, ReusesReleasedSlab) {
  Workspace ws;
  Result<Matrix> first = ws.AcquireMatrix(8, 8);
  ASSERT_TRUE(first.ok());
  const float* ptr = first->data();
  ws.Release(*first);
  Result<Matrix> second = ws.AcquireMatrix(8, 8);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->data(), ptr);  // same slab came back from the pool
  EXPECT_EQ(ws.capacity_bytes(), 8 * 8 * sizeof(float));
  ws.Release(*second);
}

TEST(WorkspaceTest, BestFitPrefersSmallestSufficientSlab) {
  Workspace ws;
  Result<Matrix> big = ws.AcquireMatrix(16, 16);
  Result<Matrix> small = ws.AcquireMatrix(4, 4);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  const float* small_ptr = small->data();
  ws.Release(*big);
  ws.Release(*small);
  // A 4x4 request fits both slabs; best-fit must pick the 4x4 one.
  Result<Matrix> again = ws.AcquireMatrix(4, 4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data(), small_ptr);
  ws.Release(*again);
}

TEST(WorkspaceTest, ReacquiredMatrixIsZeroFilled) {
  Workspace ws;
  Result<Matrix> m = ws.AcquireMatrix(3, 3);
  ASSERT_TRUE(m.ok());
  m->Fill(42.0f);
  ws.Release(*m);
  Result<Matrix> again = ws.AcquireMatrix(3, 3);
  ASSERT_TRUE(again.ok());
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(again->At(r, c), 0.0f);
  }
  ws.Release(*again);
}

TEST(WorkspaceTest, BudgetRejectsOversizedAcquire) {
  Workspace ws(/*budget_bytes=*/100);
  EXPECT_TRUE(ws.CheckBudget(100).ok());
  EXPECT_FALSE(ws.CheckBudget(101).ok());
  Result<Matrix> too_big = ws.AcquireMatrix(10, 10);  // 400 bytes
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ws.in_use_bytes(), 0u);  // failed acquire leaves no residue

  Result<Matrix> fits = ws.AcquireMatrix(5, 5);  // 100 bytes
  ASSERT_TRUE(fits.ok());
  EXPECT_FALSE(ws.CheckBudget(1).ok());  // budget is now fully committed
  Result<std::span<uint32_t>> over = ws.AcquireIndices(1);
  EXPECT_FALSE(over.ok());
  ws.Release(*fits);
  EXPECT_TRUE(ws.CheckBudget(100).ok());
}

TEST(WorkspaceTest, HighWaterTracksAndResets) {
  Workspace ws;
  Result<Matrix> a = ws.AcquireMatrix(4, 4);  // 64 bytes
  Result<Matrix> b = ws.AcquireMatrix(2, 2);  // 16 bytes
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ws.in_use_bytes(), 80u);
  EXPECT_EQ(ws.high_water_bytes(), 80u);
  ws.Release(*b);
  EXPECT_EQ(ws.in_use_bytes(), 64u);
  EXPECT_EQ(ws.high_water_bytes(), 80u);  // high water sticks
  ws.ResetHighWater();
  EXPECT_EQ(ws.high_water_bytes(), 64u);  // resets to current in-use
  ws.Release(*a);
}

TEST(WorkspaceTest, MirrorsLogicalBytesIntoMemoryTracker) {
  MemoryTracker& tracker = MemoryTracker::Global();
  Workspace ws;
  const size_t base = tracker.current_bytes();
  Result<Matrix> m = ws.AcquireMatrix(10, 10);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(tracker.current_bytes(), base + 10 * 10 * sizeof(float));
  ws.Release(*m);
  EXPECT_EQ(tracker.current_bytes(), base);

  // Reuse charges the tracker exactly like a fresh allocation: the tracked
  // peak of a warm query equals the tracked peak of a cold one.
  tracker.ResetPeak();
  const size_t peak_base = tracker.peak_bytes();
  Result<Matrix> warm = ws.AcquireMatrix(10, 10);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(tracker.peak_bytes(), peak_base + 10 * 10 * sizeof(float));
  ws.Release(*warm);
}

TEST(WorkspaceTest, AcquireIndicesZeroed) {
  Workspace ws;
  Result<std::span<uint32_t>> idx = ws.AcquireIndices(16);
  ASSERT_TRUE(idx.ok());
  ASSERT_EQ(idx->size(), 16u);
  for (uint32_t v : *idx) EXPECT_EQ(v, 0u);
  (*idx)[3] = 7;
  ws.Release(*idx);
  EXPECT_EQ(ws.in_use_bytes(), 0u);
}

TEST(ScratchMatrixTest, NullWorkspaceFallsBackToOwned) {
  Result<ScratchMatrix> scratch = ScratchMatrix::Acquire(nullptr, 3, 4);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(scratch->get().rows(), 3u);
  EXPECT_EQ(scratch->get().cols(), 4u);
  EXPECT_FALSE(scratch->get().borrowed());
  scratch->get().At(2, 3) = 5.0f;
  EXPECT_EQ(scratch->get().At(2, 3), 5.0f);
}

TEST(ScratchMatrixTest, ReleasesLeaseOnDestruction) {
  Workspace ws;
  {
    Result<ScratchMatrix> scratch = ScratchMatrix::Acquire(&ws, 5, 5);
    ASSERT_TRUE(scratch.ok());
    EXPECT_TRUE(scratch->get().borrowed());
    EXPECT_EQ(ws.in_use_bytes(), 5 * 5 * sizeof(float));
  }
  EXPECT_EQ(ws.in_use_bytes(), 0u);
  EXPECT_EQ(ws.capacity_bytes(), 5 * 5 * sizeof(float));
}

TEST(ScratchIndicesTest, NullAndWorkspacePaths) {
  Result<ScratchIndices> owned = ScratchIndices::Acquire(nullptr, 8);
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(owned->get().size(), 8u);
  owned->get()[7] = 3;
  EXPECT_EQ(owned->get()[7], 3u);

  Workspace ws;
  {
    Result<ScratchIndices> leased = ScratchIndices::Acquire(&ws, 8);
    ASSERT_TRUE(leased.ok());
    EXPECT_EQ(ws.in_use_bytes(), 8 * sizeof(uint32_t));
  }
  EXPECT_EQ(ws.in_use_bytes(), 0u);
}

}  // namespace
}  // namespace entmatcher
