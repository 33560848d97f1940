// Merge-pause benchmark for the concurrent hybrid index (thesis Section 5.2
// merge strategies, extended to concurrent serving): measures how much a
// static-stage merge stalls concurrent readers and writers.
//
// Two serving modes are compared across growing static-stage sizes:
//   blocking    — the single-threaded HybridIndex behind a shared_mutex;
//                 a merge holds the write lock for its full duration, so
//                 reader stalls grow with static size.
//   concurrent  — OlcConcurrentHybridBTree: merge freezes the dynamic stage
//                 by an O(1) snapshot swap, waits out writers still pinned
//                 to it, drains and rebuilds off the request path, and
//                 publishes by epoch-swapped pointer, so reader/writer p99
//                 must stay bounded as the static stage grows (the headline
//                 claim this benchmark exists to check).
//
// Latencies are recorded into obs::StallSplit, split by whether the merge
// was in flight when the operation started; rows report idle vs during-merge
// p50/p99/max per mode. A second section runs the sharded multi-threaded
// YCSB-A driver against the concurrent index. `--json <path>` or
// MET_BENCH_JSON emit everything as met.bench.v1.
#include <atomic>
#include <cstdio>
#include <shared_mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "hybrid/hybrid.h"
#include "hybrid/olc_hybrid.h"
#include "obs/stall.h"
#include "ycsb/driver.h"

namespace met {
namespace {

// The blocking baseline: the single-threaded hybrid index made thread-safe
// the simplest way. Merge() raises the in-flight flag before taking the
// write lock so operations arriving during the merge are attributed to it.
class BlockingHybrid {
 public:
  using Value = uint64_t;

  explicit BlockingHybrid(const HybridConfig& config) : index_(config) {}

  bool Insert(uint64_t key, Value value) {
    std::unique_lock<std::shared_mutex> l(mu_);
    return index_.Insert(key, value);
  }
  bool Lookup(uint64_t key, Value* value = nullptr) const {
    std::shared_lock<std::shared_mutex> l(mu_);
    return index_.Lookup(key, value);
  }
  void Merge() {
    merging_.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock<std::shared_mutex> l(mu_);
      index_.Merge();
    }
    merging_.store(false, std::memory_order_seq_cst);
  }
  bool MergeInFlight() const {
    return merging_.load(std::memory_order_relaxed);
  }
  size_t StaticEntries() const {
    std::shared_lock<std::shared_mutex> l(mu_);
    return index_.StaticEntries();
  }

 private:
  mutable std::shared_mutex mu_;
  std::atomic<bool> merging_{false};
  HybridBTree<uint64_t> index_;
};

// One worker hammers the index (90% reads over the preloaded keys, 10%
// inserts of fresh keys) while the main thread triggers one manual merge;
// every op latency lands in `stalls` under the phase seen at op start.
template <typename Index>
double RunPausePhase(Index* index, size_t num_keys, obs::StallSplit* stalls) {
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    Random rng(7);
    uint64_t next_key = num_keys * 2;  // fresh keys, disjoint from preload
    uint64_t found = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      bool is_read = rng.Uniform(10) != 0;
      bool merging = index->MergeInFlight();
      met::Timer t;
      if (is_read) {
        uint64_t v;
        found += index->Lookup(rng.Uniform(num_keys) * 2, &v) ? 1 : 0;
      } else {
        index->Insert(next_key++, 1);
      }
      stalls->Record(is_read, merging, t.ElapsedNanos());
    }
    bench::Consume(found);
  });

  // Let the worker accumulate an idle baseline, then merge.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  met::Timer merge_timer;
  index->Merge();
  double merge_seconds = merge_timer.ElapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true, std::memory_order_relaxed);
  worker.join();
  return merge_seconds;
}

template <typename Index>
void RunPauseRow(const char* mode, size_t num_keys) {
  std::conditional_t<std::is_same_v<Index, BlockingHybrid>, HybridConfig,
                     ConcurrentHybridConfig>
      config;
  config.min_merge_entries = ~size_t{0};  // manual merges only
  Index index(config);

  for (uint64_t i = 0; i < num_keys; ++i) index.Insert(i * 2, i + 1);
  index.Merge();  // static stage now holds the full preload
  if constexpr (!std::is_same_v<Index, BlockingHybrid>)
    index.WaitForMergeIdle();
  // Stage fresh dynamic entries so the measured merge has work to drain.
  for (uint64_t i = 0; i < num_keys / 10; ++i)
    index.Insert(num_keys * 4 + i * 2, 1);

  obs::StallSplit stalls;
  double merge_seconds = RunPausePhase(&index, num_keys, &stalls);
  if constexpr (!std::is_same_v<Index, BlockingHybrid>)
    index.WaitForMergeIdle();

  const auto& ri = stalls.Reads(false);
  const auto& rm = stalls.Reads(true);
  const auto& wi = stalls.Writes(false);
  const auto& wm = stalls.Writes(true);
  std::printf(
      "  %-10s static=%8zu merge=%6.1fms | read idle p50/p99 %6llu/%8llu ns"
      " | read merge p99/max %8llu/%10llu ns | write merge p99/max "
      "%8llu/%10llu ns\n",
      mode, index.StaticEntries(), merge_seconds * 1e3,
      (unsigned long long)ri.Quantile(0.5), (unsigned long long)ri.Quantile(0.99),
      (unsigned long long)rm.Quantile(0.99), (unsigned long long)rm.Max(),
      (unsigned long long)wm.Quantile(0.99), (unsigned long long)wm.Max());
  bench::Row({{"mode", mode},
              {"static_entries", index.StaticEntries()},
              {"merge_ms", merge_seconds * 1e3},
              {"read_idle_p50_ns", ri.Quantile(0.5)},
              {"read_idle_p99_ns", ri.Quantile(0.99)},
              {"read_merge_p50_ns", rm.Quantile(0.5)},
              {"read_merge_p99_ns", rm.Quantile(0.99)},
              {"read_merge_max_ns", rm.Max()},
              {"read_merge_count", rm.Count()},
              {"write_idle_p99_ns", wi.Quantile(0.99)},
              {"write_merge_p99_ns", wm.Quantile(0.99)},
              {"write_merge_max_ns", wm.Max()}});
}

/// met::batch through the serving stack: the driver's `read_batch` knob
/// buffers consecutive reads per thread and retires them through
/// ShardedIndex::LookupBatch (counting-sort by shard, then the unified
/// batched lookup per shard). WorkloadC isolates the read path.
void RunBatchedShardedYcsb() {
  bench::Title("Sharded YCSB-C read batching (met::batch read_batch knob)");
  size_t num_keys = 200000 * bench::Scale();
  size_t ops_per_thread = 200000 * bench::Scale();
  for (size_t threads : {size_t{1}, size_t{2}}) {
    double base = 0;
    for (size_t read_batch : {size_t{1}, size_t{16}, size_t{64}}) {
      ConcurrentHybridConfig config;
      config.min_merge_entries = 4096;
      ycsb::ShardedIndex<OlcConcurrentHybridBTree<uint64_t>, uint64_t> index(
          /*num_shards=*/2, config);
      for (uint64_t i = 0; i < num_keys; ++i) index.Insert(i, i + 1);
      index.WaitForMergeIdle();
      auto res = ycsb::RunYcsb(&index, YcsbSpec::WorkloadC(), num_keys,
                               ops_per_thread, threads,
                               [](uint64_t i) { return i; },
                               /*stalls=*/nullptr, read_batch);
      if (read_batch == 1) base = res.Mops();
      std::printf("  threads=%zu read_batch=%-3zu %6.2f Mops (%.2fx)\n",
                  threads, read_batch, res.Mops(),
                  base > 0 ? res.Mops() / base : 1.0);
      bench::Row({{"threads", threads},
                  {"read_batch", read_batch},
                  {"mops", res.Mops()},
                  {"speedup", base > 0 ? res.Mops() / base : 1.0}});
    }
  }
}

void RunShardedYcsb() {
  bench::Title("Sharded YCSB-A on concurrent hybrid B+tree");
  bench::Note(
      "hash-sharded OlcConcurrentHybridBTree; background merges enabled; "
      "latencies split by merge-in-flight at op start");
  size_t num_keys = 200000 * bench::Scale();
  size_t ops_per_thread = 100000 * bench::Scale();
  for (size_t threads : {1, 2}) {
    ConcurrentHybridConfig config;
    config.min_merge_entries = 4096;
    ycsb::ShardedIndex<OlcConcurrentHybridBTree<uint64_t>, uint64_t> index(
        /*num_shards=*/2, config);
    for (uint64_t i = 0; i < num_keys; ++i) index.Insert(i, i + 1);
    index.WaitForMergeIdle();

    obs::StallSplit stalls;
    auto res = ycsb::RunYcsb(&index, YcsbSpec::WorkloadA(), num_keys,
                             ops_per_thread, threads,
                             [](uint64_t i) { return i; }, &stalls);
    index.WaitForMergeIdle();
    const auto& rm = stalls.Reads(true);
    const auto& wm = stalls.Writes(true);
    std::printf(
        "  threads=%zu  %6.2f Mops | read merge p99 %8llu ns (n=%llu) | "
        "write merge p99 %8llu ns (n=%llu)\n",
        threads, res.Mops(), (unsigned long long)rm.Quantile(0.99),
        (unsigned long long)rm.Count(), (unsigned long long)wm.Quantile(0.99),
        (unsigned long long)wm.Count());
    bench::Row({{"threads", threads},
                {"mops", res.Mops()},
                {"ops", res.TotalOps()},
                {"read_merge_p99_ns", rm.Quantile(0.99)},
                {"read_merge_count", rm.Count()},
                {"write_merge_p99_ns", wm.Quantile(0.99)},
                {"write_merge_count", wm.Count()}});
  }
}

}  // namespace
}  // namespace met

int main(int argc, char** argv) {
  met::bench::Reporter::Get().ParseArgs(&argc, argv);
  met::bench::Title("Merge pause: reader/writer stalls during a merge");
  met::bench::Note(
      "blocking = HybridIndex behind a shared_mutex (merge holds the write "
      "lock); concurrent = OLC hybrid, epoch-swapped background merge. The "
      "claim under test: concurrent read/write p99 stays bounded as static "
      "size grows");
  for (size_t num_keys : {100000, 300000, 900000}) {
    size_t n = num_keys * met::bench::Scale();
    met::RunPauseRow<met::BlockingHybrid>("blocking", n);
    met::RunPauseRow<met::OlcConcurrentHybridBTree<uint64_t>>("concurrent",
                                                              n);
  }
  met::RunShardedYcsb();
  met::RunBatchedShardedYcsb();
  met::bench::Reporter::Get().WriteIfEnabled();
  return 0;
}
