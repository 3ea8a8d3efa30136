// Failure-injection tests: I/O errors at the page layer must surface as
// clean Status errors through every layer above it — no crashes, no
// silent truncation.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/exec_context.h"
#include "exec/external_sort.h"
#include "index/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/table_heap.h"

namespace setm {
namespace {

TEST(FaultInjectionTest, BackendFailsAfterBudget) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 2);
  ASSERT_TRUE(flaky.AllocatePage().ok());
  ASSERT_TRUE(flaky.AllocatePage().ok());
  auto third = flaky.AllocatePage();
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsIOError());
  // Healing restores service.
  flaky.Heal();
  EXPECT_TRUE(flaky.AllocatePage().ok());
}

TEST(FaultInjectionTest, BufferPoolPropagatesReadErrors) {
  IoStats stats;
  MemoryBackend real(&stats);
  PageId id;
  {
    BufferPool warm(&real, 4);
    auto guard = warm.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard.value().id();
  }
  FaultInjectionBackend flaky(&real, 0);
  BufferPool pool(&flaky, 4);
  auto fetch = pool.FetchPage(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_TRUE(fetch.status().IsIOError());
}

// Regression: a failed dirty write-back during eviction used to orphan the
// victim frame (popped from the LRU, never freed or re-enqueued), silently
// shrinking the pool by one frame per failure. The pool must survive any
// number of failed evictions at full capacity.
TEST(FaultInjectionTest, VictimWriteBackFailureKeepsPoolCapacity) {
  constexpr size_t kFrames = 4;
  IoStats stats;
  MemoryBackend real(&stats);
  // Enough backing pages for one pool-full of dirty pages + replacements.
  for (size_t i = 0; i < 2 * kFrames; ++i) ASSERT_TRUE(real.AllocatePage().ok());

  // Budget covers exactly the initial reads; the eviction write-backs fail.
  FaultInjectionBackend flaky(&real, kFrames);
  BufferPool pool(&flaky, kFrames);
  for (size_t i = 0; i < kFrames; ++i) {
    auto guard = pool.FetchPage(static_cast<PageId>(i));
    ASSERT_TRUE(guard.ok());
    guard.value().MarkDirty();
  }

  // Each fetch of an uncached page needs an eviction whose write-back fails.
  // If the victim leaked, later attempts would shift from IOError to
  // ResourceExhausted as the pool ran out of frames.
  for (size_t attempt = 0; attempt < 2 * kFrames; ++attempt) {
    auto fetch = pool.FetchPage(static_cast<PageId>(kFrames));
    ASSERT_FALSE(fetch.ok());
    EXPECT_TRUE(fetch.status().IsIOError()) << fetch.status().ToString();
  }

  // After healing, the pool must still serve `capacity` concurrent pins.
  flaky.Heal();
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < kFrames; ++i) {
    auto guard = pool.FetchPage(static_cast<PageId>(kFrames + i));
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    guards.push_back(std::move(guard).value());
  }
  // And the (capacity+1)-th concurrent pin fails for the *right* reason.
  auto extra = pool.FetchPage(0);
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kResourceExhausted);
}

// Retryable eviction: when the LRU victim's dirty write-back fails, the
// pool must skip that frame (leaving it resident and dirty for a later
// retry) and evict the next LRU candidate instead — a fetch succeeds while
// one poisoned page sits in the pool.
TEST(FaultInjectionTest, EvictionSkipsPoisonedVictim) {
  constexpr size_t kFrames = 3;
  IoStats stats;
  MemoryBackend real(&stats);
  // Backing pages: kFrames resident + 2 replacement targets.
  for (size_t i = 0; i < kFrames + 2; ++i) {
    ASSERT_TRUE(real.AllocatePage().ok());
  }

  FaultInjectionBackend flaky(&real, ~0ull);
  BufferPool pool(&flaky, kFrames);
  // Make page 0 the LRU victim, dirty, with a poisoned write path; the
  // other residents are dirty too but writable.
  for (size_t i = 0; i < kFrames; ++i) {
    auto guard = pool.FetchPage(static_cast<PageId>(i));
    ASSERT_TRUE(guard.ok());
    guard.value().MarkDirty();
  }
  flaky.PoisonWrites(0);

  // The fetch needs an eviction; the LRU victim (page 0) cannot be written
  // back, so the pool must route around it and still succeed.
  auto fetch = pool.FetchPage(static_cast<PageId>(kFrames));
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  fetch.value().Release();

  // The poisoned page stayed resident (a re-fetch is a cache hit: no read
  // budget is consumed because no ReadPage reaches the backend).
  const uint64_t ops_before = flaky.ops();
  auto poisoned = pool.FetchPage(0);
  ASSERT_TRUE(poisoned.ok());
  EXPECT_EQ(flaky.ops(), ops_before);
  poisoned.value().Release();

  // Once the page heals, its write-back succeeds and it becomes evictable
  // again (fetching two fresh pages forces it out eventually).
  flaky.PoisonWrites(kInvalidPageId);
  auto fetch2 = pool.FetchPage(static_cast<PageId>(kFrames + 1));
  ASSERT_TRUE(fetch2.ok()) << fetch2.status().ToString();
}

// Regression: a failed backend read in FetchPage used to drop the victim
// frame after it had already been detached from the LRU and page table;
// the frame has to return to the free list on that path.
TEST(FaultInjectionTest, ReadFailureReturnsFrameToFreeList) {
  constexpr size_t kFrames = 4;
  IoStats stats;
  MemoryBackend real(&stats);
  for (size_t i = 0; i < kFrames; ++i) ASSERT_TRUE(real.AllocatePage().ok());

  FaultInjectionBackend flaky(&real, 0);  // every read fails
  BufferPool pool(&flaky, kFrames);
  // More failed fetches than frames: if any attempt leaked its frame, the
  // pool would run out and report ResourceExhausted instead of IOError.
  for (size_t attempt = 0; attempt < 2 * kFrames; ++attempt) {
    auto fetch = pool.FetchPage(0);
    ASSERT_FALSE(fetch.ok());
    EXPECT_TRUE(fetch.status().IsIOError()) << fetch.status().ToString();
  }

  flaky.Heal();
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < kFrames; ++i) {
    auto guard = pool.FetchPage(static_cast<PageId>(i));
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    guards.push_back(std::move(guard).value());
  }
}

TEST(FaultInjectionTest, TableHeapInsertSurfacesAllocationFailure) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 4);  // enough for creation only
  BufferPool pool(&flaky, 4);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  // Fill the first page; the chain extension must eventually fail cleanly.
  const std::string record(1000, 'x');
  Status last = Status::OK();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    last = heap->Insert(record).status();
  }
  EXPECT_TRUE(last.IsIOError());
}

TEST(FaultInjectionTest, ExternalSortSpillFailureIsReported) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 8);
  ExecContext ctx;
  ctx.temp_pool = std::make_shared<BufferPool>(&flaky, 8);
  ctx.sort_memory_bytes = 128;  // spill almost immediately

  Schema schema({Column{"a", ValueType::kInt32}});
  ExternalSort sort(ctx, schema, TupleComparator({0}));
  Status last = Status::OK();
  for (int i = 0; i < 10000 && last.ok(); ++i) {
    last = sort.Add(Tuple({Value::Int32(i)}));
  }
  if (last.ok()) {
    auto finish = sort.Finish();
    last = finish.ok() ? Status::OK() : finish.status();
  }
  EXPECT_TRUE(last.IsIOError()) << last.ToString();
}

TEST(FaultInjectionTest, BPlusTreeInsertFailureIsReported) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 64);
  BufferPool pool(&flaky, 8);
  auto tree = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Status last = Status::OK();
  for (uint64_t k = 0; k < 100000 && last.ok(); ++k) {
    last = tree->Insert(k, 0);
  }
  EXPECT_TRUE(last.IsIOError()) << last.ToString();
}

TEST(FaultInjectionTest, HealedBackendResumesCleanly) {
  IoStats stats;
  MemoryBackend real(&stats);
  FaultInjectionBackend flaky(&real, 10);
  BufferPool pool(&flaky, 4);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  const std::string record(1500, 'y');
  Status last = Status::OK();
  int inserted = 0;
  for (int i = 0; i < 50 && last.ok(); ++i) {
    last = heap->Insert(record).status();
    if (last.ok()) ++inserted;
  }
  ASSERT_TRUE(last.IsIOError());
  flaky.Heal();
  // After healing, the heap accepts inserts again and earlier records are
  // still readable through iteration.
  ASSERT_TRUE(heap->Insert(record).ok());
  int count = 0;
  for (auto it = heap->Begin(); it.Valid();) {
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, inserted + 1);
}

}  // namespace
}  // namespace setm
