// Tests for the concurrent hybrid index (OlcConcurrentHybridBTree, the
// served engine): epoch-based reclamation, the freeze/handoff/drain/publish
// merge protocol, differential correctness against std::map in both unique
// and served (non-unique) mode, tombstone/scan regressions on the
// concurrent path, and multi-threaded stress (the TSan CI job picks this
// binary up by name).
#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "hybrid/epoch.h"
#include "hybrid/olc_hybrid.h"
#include "obs/stall.h"
#include "ycsb/driver.h"
#include "gtest/gtest.h"

namespace met {
namespace {

template <typename Index>
void ExpectValid(const Index& index) {
  std::ostringstream os;
  EXPECT_TRUE(index.Validate(os)) << os.str();
}

// ---- EpochDomain ----

TEST(EpochDomainTest, RetiredObjectSurvivesWhilePinned) {
  hybrid::EpochDomain domain;
  bool freed = false;
  size_t slot = domain.Pin();
  domain.Retire([&] { freed = true; });
  // The reader pinned before the retirement epoch: reclamation must wait.
  EXPECT_EQ(domain.TryReclaim(), 0u);
  EXPECT_FALSE(freed);
  EXPECT_EQ(domain.RetiredCount(), 1u);
  domain.Unpin(slot);
  EXPECT_EQ(domain.TryReclaim(), 1u);
  EXPECT_TRUE(freed);
  EXPECT_EQ(domain.RetiredCount(), 0u);
}

TEST(EpochDomainTest, LateReaderDoesNotBlockEarlierRetirement) {
  hybrid::EpochDomain domain;
  bool freed = false;
  domain.Retire([&] { freed = true; });
  // Pinned at an epoch *after* the retirement tag: cannot hold a reference
  // to the retired object, so reclamation proceeds.
  size_t slot = domain.Pin();
  EXPECT_EQ(domain.TryReclaim(), 1u);
  EXPECT_TRUE(freed);
  domain.Unpin(slot);
}

TEST(EpochDomainTest, DestructorRunsOutstandingDeleters) {
  int freed = 0;
  {
    hybrid::EpochDomain domain;
    domain.Retire([&] { ++freed; });
    domain.Retire([&] { ++freed; });
  }
  EXPECT_EQ(freed, 2);
}

TEST(EpochDomainTest, ValidateAndGuard) {
  hybrid::EpochDomain domain;
  std::ostringstream os;
  EXPECT_TRUE(domain.Validate(os)) << os.str();
  {
    hybrid::EpochGuard guard(domain);
    EXPECT_EQ(domain.PinnedSlots(), 1u);
    EXPECT_TRUE(domain.Validate(os)) << os.str();
  }
  EXPECT_EQ(domain.PinnedSlots(), 0u);
  domain.Retire([] {});
  EXPECT_TRUE(domain.Validate(os)) << os.str();
  EXPECT_EQ(domain.TryReclaim(), 1u);
}

// ---- Differential correctness ----

using Index = OlcConcurrentHybridBTree<uint64_t>;

ConcurrentHybridConfig SmallMergeConfig(bool background, bool unique = true) {
  ConcurrentHybridConfig c;
  c.min_merge_entries = 256;
  c.background_merge = background;
  c.unique = unique;
  return c;
}

// Random Insert/Update/Remove/Lookup against std::map. In non-unique (the
// served) mode Insert upserts: kInserted for a dead key, kUpdated otherwise.
void RunRandomOpsAgainstStdMap(Index* index, bool unique, int ops,
                               uint64_t seed) {
  std::map<uint64_t, uint64_t> ref;
  Random rng(seed);
  for (int i = 0; i < ops; ++i) {
    uint64_t k = rng.Uniform(4000) * 2;
    switch (rng.Uniform(5)) {
      case 0: {
        bool live = ref.count(k) > 0;
        MutateOutcome want = !live  ? MutateOutcome::kInserted
                             : unique ? MutateOutcome::kExists
                                      : MutateOutcome::kUpdated;
        ASSERT_EQ(index->Insert(k, i), want) << i;
        if (!live || !unique) ref[k] = i;
        break;
      }
      case 1: {
        bool live = ref.count(k) > 0;
        if (live) ref[k] = i;
        ASSERT_EQ(index->Update(k, i), live ? MutateOutcome::kUpdated
                                            : MutateOutcome::kNotFound);
        break;
      }
      case 2:
        ASSERT_EQ(index->Remove(k), ref.erase(k) > 0
                                        ? MutateOutcome::kRemoved
                                        : MutateOutcome::kNotFound);
        break;
      default: {
        uint64_t v = 0;
        bool found = index->Lookup(k, &v);
        auto it = ref.find(k);
        ASSERT_EQ(found, it != ref.end());
        if (found) {
          ASSERT_EQ(v, it->second);
        }
      }
    }
    if (i % 4096 == 0) {
      index->WaitForMergeIdle();
      ExpectValid(*index);
    }
  }
  index->WaitForMergeIdle();
  ASSERT_EQ(index->size(), ref.size());
  std::vector<uint64_t> vals;
  index->Scan(0, ref.size() + 10, &vals);
  ASSERT_EQ(vals.size(), ref.size());
  size_t i = 0;
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(vals[i], v) << "position " << i;
    ++i;
  }
  ExpectValid(*index);
  EXPECT_GT(index->merge_stats().merge_count, 0u);
}

TEST(ConcurrentHybridTest, BTreeIntRandomOpsSyncMerge) {
  Index index(SmallMergeConfig(false));
  RunRandomOpsAgainstStdMap(&index, /*unique=*/true, 20000, 1);
}

TEST(ConcurrentHybridTest, BTreeIntRandomOpsBackgroundMerge) {
  Index index(SmallMergeConfig(true));
  RunRandomOpsAgainstStdMap(&index, /*unique=*/true, 20000, 2);
}

TEST(ConcurrentHybridTest, ServedConfigRandomOpsSyncMerge) {
  Index index(SmallMergeConfig(false, /*unique=*/false));
  RunRandomOpsAgainstStdMap(&index, /*unique=*/false, 20000, 3);
}

TEST(ConcurrentHybridTest, ServedConfigRandomOpsBackgroundMerge) {
  Index index(SmallMergeConfig(true, /*unique=*/false));
  RunRandomOpsAgainstStdMap(&index, /*unique=*/false, 20000, 4);
}

// ---- Regressions on the concurrent path ----

// The served configuration with merges only on demand (Merge()).
ConcurrentHybridConfig ManualMergeConfig() {
  ConcurrentHybridConfig cfg;
  cfg.min_merge_entries = 1 << 30;
  cfg.unique = false;
  return cfg;
}

TEST(ConcurrentHybridTest, NonUniqueInsertKeepsSizeExact) {
  Index index(ManualMergeConfig());
  for (uint64_t k = 0; k < 100; ++k)
    ASSERT_EQ(index.Insert(k, k), MutateOutcome::kInserted);
  for (uint64_t k = 0; k < 100; ++k)
    ASSERT_EQ(index.Insert(k, k + 1000), MutateOutcome::kUpdated);
  ASSERT_EQ(index.size(), 100u);
  index.Merge();
  ASSERT_EQ(index.size(), 100u);
  ASSERT_EQ(index.Insert(7, 7777), MutateOutcome::kUpdated);
  ASSERT_EQ(index.size(), 100u);
  uint64_t v = 0;
  ASSERT_TRUE(index.Lookup(7, &v));
  EXPECT_EQ(v, 7777u);
  ExpectValid(index);
}

TEST(ConcurrentHybridTest, TombstoneReinsertSizeExact) {
  Index index(ManualMergeConfig());
  for (uint64_t k = 0; k < 50; ++k) index.Insert(k, k);
  index.Merge();
  ASSERT_EQ(index.Remove(10), MutateOutcome::kRemoved);
  ASSERT_EQ(index.Remove(10), MutateOutcome::kNotFound);
  ASSERT_EQ(index.size(), 49u);
  ASSERT_EQ(index.Insert(10, 1010), MutateOutcome::kInserted);
  ASSERT_EQ(index.size(), 50u);
  index.Merge();
  ASSERT_EQ(index.size(), 50u);
  ExpectValid(index);
}

TEST(ConcurrentHybridTest, ScanAcrossDenseTombstoneRun) {
  Index index(ManualMergeConfig());
  for (uint64_t k = 0; k < 1000; ++k) index.Insert(k, k + 1);
  index.Merge();
  for (uint64_t k = 300; k < 700; ++k)
    ASSERT_EQ(index.Remove(k), MutateOutcome::kRemoved);
  ASSERT_EQ(index.size(), 600u);
  std::vector<uint64_t> vals;
  ASSERT_EQ(index.Scan(250, 100, &vals), 100u);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(vals[i], 250 + i + 1);
  for (size_t i = 50; i < 100; ++i) EXPECT_EQ(vals[i], 700 + (i - 50) + 1);
  ExpectValid(index);
}

// ---- Merge protocol ----

TEST(ConcurrentHybridTest, ManualMergeAdvancesSnapshotVersionByTwo) {
  Index index(ManualMergeConfig());
  EXPECT_EQ(index.SnapshotVersion(), 0u);
  for (uint64_t k = 0; k < 100; ++k) index.Insert(k, k);
  EXPECT_EQ(index.DynamicEntries(), 100u);
  EXPECT_EQ(index.StaticEntries(), 0u);
  index.Merge();
  EXPECT_EQ(index.SnapshotVersion(), 2u);
  EXPECT_EQ(index.DynamicEntries(), 0u);
  EXPECT_EQ(index.StaticEntries(), 100u);
  for (uint64_t k = 100; k < 150; ++k) index.Insert(k, k);
  index.Merge();
  EXPECT_EQ(index.SnapshotVersion(), 4u);
  EXPECT_EQ(index.StaticEntries(), 150u);
  EXPECT_EQ(index.merge_stats().merge_count, 2u);
  index.Merge();  // empty dynamic stage: a no-op, not a version bump
  EXPECT_EQ(index.SnapshotVersion(), 4u);
  ExpectValid(index);
}

TEST(ConcurrentHybridTest, BackgroundMergeEventuallyPublishes) {
  Index index(SmallMergeConfig(true, /*unique=*/false));
  for (uint64_t k = 0; k < 20000; ++k) index.Insert(k, k + 1);
  index.WaitForMergeIdle();
  EXPECT_GT(index.merge_stats().merge_count, 0u);
  EXPECT_GT(index.StaticEntries(), 0u);
  EXPECT_EQ(index.size(), 20000u);
  // The published static snapshot is usable directly.
  auto stat = index.StaticStageSnapshot();
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->size(), index.StaticEntries());
  ExpectValid(index);
}

// Readers and writers run against the index while background merges freeze,
// drain, and publish underneath them. Every thread checks full consistency
// of its own keys; the final state is validated and compared to the union
// of all writes. TSan runs this binary in CI.
TEST(ConcurrentHybridTest, ConcurrentReadersAndWritersDuringMerges) {
  Index index(SmallMergeConfig(true, /*unique=*/false));
  constexpr uint64_t kPreload = 4000;
  constexpr uint64_t kPerWriter = 3000;
  constexpr int kWriters = 2;
  for (uint64_t k = 0; k < kPreload; ++k)
    ASSERT_EQ(index.Insert(k, k + 1), MutateOutcome::kInserted);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&index, w] {
      // Thread-disjoint key range; every op's result is deterministic.
      uint64_t base = kPreload + static_cast<uint64_t>(w + 1) * 1000000;
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        uint64_t key = base + i;
        ASSERT_EQ(index.Insert(key, key), MutateOutcome::kInserted);
        if (i % 3 == 0) {
          ASSERT_EQ(index.Update(key, key + 7), MutateOutcome::kUpdated);
        }
        if (i % 5 == 0) {
          ASSERT_EQ(index.Remove(key), MutateOutcome::kRemoved);
        }
      }
    });
  }
  std::thread reader([&index, &stop] {
    Random rng(99);
    std::vector<uint64_t> vals;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t k = rng.Uniform(kPreload);
      uint64_t v = 0;
      ASSERT_TRUE(index.Lookup(k, &v)) << k;  // preload keys are never erased
      ASSERT_EQ(v, k + 1);
      if (k % 64 == 0) {
        vals.clear();
        // Preloaded keys are contiguous and immutable, so a short scan
        // inside the preload range has a deterministic prefix.
        uint64_t start = rng.Uniform(kPreload - 32);
        ASSERT_EQ(index.Scan(start, 16, &vals), 16u);
        for (size_t i = 0; i < 16 && start + i < kPreload; ++i)
          ASSERT_EQ(vals[i], start + i + 1);
      }
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  index.WaitForMergeIdle();

  // Replay the deterministic per-writer history against the final state.
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t k = 0; k < kPreload; ++k) ref[k] = k + 1;
  for (int w = 0; w < kWriters; ++w) {
    uint64_t base = kPreload + static_cast<uint64_t>(w + 1) * 1000000;
    for (uint64_t i = 0; i < kPerWriter; ++i) {
      uint64_t key = base + i;
      ref[key] = key;
      if (i % 3 == 0) ref[key] = key + 7;
      if (i % 5 == 0) ref.erase(key);
    }
  }
  ASSERT_EQ(index.size(), ref.size());
  for (const auto& [k, v] : ref) {
    uint64_t got = 0;
    ASSERT_TRUE(index.Lookup(k, &got)) << k;
    ASSERT_EQ(got, v) << k;
  }
  EXPECT_GT(index.merge_stats().merge_count, 0u);
  ExpectValid(index);
}

// ---- Sharded YCSB driver ----

// Served configuration (non-unique) with a small merge threshold.
ConcurrentHybridConfig ShardConfig() {
  ConcurrentHybridConfig cfg;
  cfg.min_merge_entries = 512;
  cfg.unique = false;
  return cfg;
}

TEST(ShardedYcsbTest, RoutesAndCountsConsistently) {
  ycsb::ShardedIndex<Index, uint64_t> index(3, ShardConfig());
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 0; k < kKeys; ++k)
    ASSERT_EQ(index.Insert(k, k + 1), MutateOutcome::kInserted);
  ASSERT_EQ(index.size(), kKeys);
  uint64_t v = 0;
  for (uint64_t k = 0; k < kKeys; k += 17) {
    ASSERT_TRUE(index.Lookup(k, &v));
    ASSERT_EQ(v, k + 1);
  }
  // Remove outside the workload's key range so the update-miss insert
  // fallback in the driver never fires and the size math stays exact.
  ASSERT_EQ(index.Remove(kKeys - 1), MutateOutcome::kRemoved);
  ASSERT_EQ(index.Remove(kKeys - 1), MutateOutcome::kNotFound);
  ASSERT_EQ(index.size(), kKeys - 1);
  index.WaitForMergeIdle();
  EXPECT_FALSE(index.AnyMergeInFlight());

  obs::StallSplit stalls;
  auto res = ycsb::RunYcsb(&index, YcsbSpec::WorkloadA(), kKeys - 200,
                           /*ops_per_thread=*/4000, /*num_threads=*/2,
                           [](uint64_t i) { return i; }, &stalls);
  index.WaitForMergeIdle();
  EXPECT_EQ(res.TotalOps(), 8000u);
  EXPECT_EQ(res.reads + res.updates + res.inserts + res.scans, 8000u);
  EXPECT_GT(res.reads, 0u);
  EXPECT_GT(res.updates, 0u);
  // Workload A has no scans/inserts; every op was latency-recorded.
  uint64_t recorded = stalls.Reads(false).Count() + stalls.Reads(true).Count() +
                      stalls.Writes(false).Count() +
                      stalls.Writes(true).Count();
  EXPECT_EQ(recorded, 8000u);
  // Updates hit preloaded keys (all present), inserts use disjoint ranges:
  // the logical size moves only by the insert count.
  EXPECT_EQ(index.size(), kKeys - 1 + res.inserts);
  for (size_t s = 0; s < index.num_shards(); ++s) ExpectValid(index.shard(s));
}

TEST(ShardedYcsbTest, BatchedReadsMatchScalar) {
  // The read_batch knob must not change any observable result: the same
  // single-threaded request stream replayed with read_batch=1 and an uneven
  // read_batch=7 yields identical op and hit totals (queued reads are
  // flushed before every write, preserving read-your-writes order).
  auto run = [](size_t read_batch) {
    ycsb::ShardedIndex<Index, uint64_t> index(3, ShardConfig());
    constexpr uint64_t kKeys = 3000;
    for (uint64_t k = 0; k < kKeys; ++k) index.Insert(k, k + 1);
    index.WaitForMergeIdle();
    auto res = ycsb::RunYcsb(&index, YcsbSpec::WorkloadA(), kKeys - 200,
                             /*ops_per_thread=*/6000, /*num_threads=*/1,
                             [](uint64_t i) { return i; },
                             /*stalls=*/nullptr, read_batch);
    index.WaitForMergeIdle();
    return res;
  };
  auto scalar = run(1);
  auto batched = run(7);
  EXPECT_EQ(scalar.TotalOps(), 6000u);
  EXPECT_EQ(batched.reads, scalar.reads);
  EXPECT_EQ(batched.read_hits, scalar.read_hits);
  EXPECT_EQ(batched.updates, scalar.updates);
  EXPECT_EQ(batched.inserts, scalar.inserts);
  EXPECT_EQ(batched.scans, scalar.scans);

  // Latencies are still recorded per op when batching (amortized).
  obs::StallSplit stalls;
  ycsb::ShardedIndex<Index, uint64_t> index(2, ShardConfig());
  for (uint64_t k = 0; k < 1000; ++k) index.Insert(k, k + 1);
  auto res = ycsb::RunYcsb(&index, YcsbSpec::WorkloadC(), 1000,
                           /*ops_per_thread=*/2000, /*num_threads=*/2,
                           [](uint64_t i) { return i; }, &stalls,
                           /*read_batch=*/32);
  index.WaitForMergeIdle();
  EXPECT_EQ(res.reads, 4000u);
  EXPECT_EQ(stalls.Reads(false).Count() + stalls.Reads(true).Count(), 4000u);
}

TEST(StallSplitTest, SplitsByPhaseAndOpClass) {
  obs::StallSplit stalls;
  stalls.Record(true, false, 100);
  stalls.Record(true, false, 200);
  stalls.Record(true, true, 5000);
  stalls.Record(false, true, 700);
  EXPECT_EQ(stalls.Reads(false).Count(), 2u);
  EXPECT_EQ(stalls.Reads(true).Count(), 1u);
  EXPECT_EQ(stalls.Writes(true).Count(), 1u);
  EXPECT_EQ(stalls.Writes(false).Count(), 0u);
  EXPECT_GE(stalls.Reads(true).Max(), stalls.Reads(false).Max());
  stalls.Reset();
  EXPECT_EQ(stalls.Reads(false).Count(), 0u);
}

}  // namespace
}  // namespace met
