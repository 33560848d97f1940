// OLC concurrency suite: interleaved multi-writer schedules (exact per-key
// outcome linearizability via check/olc_schedule.h) for OlcBTree and the
// concurrent hybrid built on it, plus the native outcome surface and the
// restart-budget contract. Runs under TSan in CI (the sanitizer shard
// regex matches "olc"), which is where the optimistic read/write protocol
// earns its keep.
#include <cstdint>

#include "btree/olc_btree.h"
#include "check/olc_schedule.h"
#include "common/olc.h"
#include "hybrid/olc_hybrid.h"
#include "gtest/gtest.h"

namespace met {
namespace {

uint64_t IntKey(int writer, int i) {
  return static_cast<uint64_t>(writer) * 1000000 + static_cast<uint64_t>(i);
}

TEST(OlcScheduleTest, BTreeMultiWriter) {
  OlcBTree<uint64_t> tree;
  check::OlcScheduleConfig cfg;
  auto r = check::RunOlcSchedule(&tree, cfg, IntKey);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(OlcScheduleTest, HybridBTreeMultiWriterWithBackgroundMerges) {
  ConcurrentHybridConfig hc;
  hc.background_merge = true;
  hc.constant_trigger = true;
  hc.constant_threshold = 512;  // many freeze/drain/publish cycles per run
  OlcConcurrentHybridBTree<uint64_t> index(hc);
  check::OlcScheduleConfig cfg;
  auto r = check::RunOlcSchedule(&index, cfg, IntKey);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_GT(index.merge_stats().merge_count, 0u);
}

TEST(OlcNativeSurfaceTest, OutcomesAndPreviousValues) {
  OlcBTree<uint64_t> t;
  uint64_t prev = 0;
  EXPECT_EQ(t.Upsert(1, 1, &prev), MutateOutcome::kInserted);
  EXPECT_EQ(t.Upsert(1, 2, &prev), MutateOutcome::kUpdated);
  EXPECT_EQ(prev, 1u);
  EXPECT_EQ(t.InsertUnique(1, 3), MutateOutcome::kExists);
  EXPECT_EQ(t.UpdateIfPresent(1, 4, &prev), MutateOutcome::kUpdated);
  EXPECT_EQ(prev, 2u);
  EXPECT_EQ(t.UpdateIfPresent(9, 9), MutateOutcome::kNotFound);
  EXPECT_EQ(t.Remove(1, &prev), MutateOutcome::kRemoved);
  EXPECT_EQ(prev, 4u);
  EXPECT_EQ(t.Remove(1), MutateOutcome::kNotFound);
  EXPECT_EQ(t.size(), 0u);
}

TEST(OlcRestartBudgetTest, BudgetBoundsAttempts) {
  // RestartBudget admits exactly `budget` attempts after the free first
  // call; the structures surface kRetry when it runs dry, never blocking.
  olc::RestartBudget b(2);
  EXPECT_TRUE(b.Next());   // initial attempt is free
  EXPECT_TRUE(b.Next());   // restart 1
  EXPECT_TRUE(b.Next());   // restart 2
  EXPECT_FALSE(b.Next());  // budget exhausted -> caller returns kRetry
}

TEST(OlcRestartBudgetTest, VersionLockProtocol) {
  // The version-word protocol underlying every OLC descent: a read lock is
  // a version snapshot, a write lock bumps it, obsolete marks poison it.
  olc::VersionLock lock;
  bool restart = false;
  uint64_t v = lock.ReadLockOrRestart(restart);
  ASSERT_FALSE(restart);
  lock.CheckOrRestart(v, restart);
  EXPECT_FALSE(restart);  // nothing changed: still valid
  lock.UpgradeToWriteLockOrRestart(v, restart);
  ASSERT_FALSE(restart);
  lock.WriteUnlock();
  lock.CheckOrRestart(v, restart);
  EXPECT_TRUE(restart);  // the write bumped the version
  restart = false;
  uint64_t v2 = lock.ReadLockOrRestart(restart);
  ASSERT_FALSE(restart);
  lock.UpgradeToWriteLockOrRestart(v2, restart);
  ASSERT_FALSE(restart);
  lock.WriteUnlockObsolete();
  lock.ReadLockOrRestart(restart);
  EXPECT_TRUE(restart);  // obsolete nodes always restart readers
}

}  // namespace
}  // namespace met
