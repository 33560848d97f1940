// OLC writer-scaling benchmark for the concurrent hybrid index
// (OlcConcurrentHybridBTree): optimistic lock coupling in the dynamic
// stage, so writers only conflict on the nodes they touch.
//
// Section 1 sweeps 1→16 writer threads doing disjoint-range inserts into a
// preloaded index and reports aggregate Mops. Section 2 measures read p99 on
// a quiet index vs read p99 while 8 writers hammer it.
// `--json <path>` or MET_BENCH_JSON emit everything as met.bench.v1.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/index_api.h"
#include "common/random.h"
#include "common/timer.h"
#include "hybrid/olc_hybrid.h"

namespace met {
namespace {

ConcurrentHybridConfig BenchConfig() {
  ConcurrentHybridConfig cfg;
  cfg.background_merge = true;
  cfg.min_merge_entries = 1 << 16;
  return cfg;
}

/// `writers` threads insert disjoint fresh-key ranges; returns aggregate
/// Mops over the wall-clock of the whole phase.
using Index = OlcConcurrentHybridBTree<uint64_t>;

double InsertSweep(int writers, size_t preload, size_t per_writer) {
  Index index(BenchConfig());
  for (uint64_t i = 0; i < preload; ++i) IndexInsert(index, i, i + 1);
  index.WaitForMergeIdle();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(writers));
  met::Timer timer;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&index, t, preload, per_writer] {
      uint64_t base = preload + static_cast<uint64_t>(t) * per_writer;
      for (uint64_t i = 0; i < per_writer; ++i)
        IndexInsert(index, base + i, i + 1);
    });
  }
  for (auto& th : threads) th.join();
  double secs = timer.ElapsedSeconds();
  index.WaitForMergeIdle();
  return static_cast<double>(per_writer) * writers / secs / 1e6;
}

uint64_t P99(std::vector<uint64_t>* ns) {
  if (ns->empty()) return 0;
  std::sort(ns->begin(), ns->end());
  return (*ns)[(ns->size() - 1) * 99 / 100];
}

/// Read p99 over the preloaded keys, optionally while `writers` threads
/// insert fresh keys for the whole read phase.
uint64_t ReadP99(Index* index, size_t preload, size_t reads, int writers) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writer_threads;
  for (int t = 0; t < writers; ++t) {
    writer_threads.emplace_back([index, t, preload, &stop] {
      // Fresh keys far above both the preload and the sweep ranges.
      uint64_t k = (1ull << 40) + (static_cast<uint64_t>(t) << 32);
      while (!stop.load(std::memory_order_relaxed))
        IndexInsert(*index, k++, 1);
    });
  }

  std::vector<uint64_t> lat;
  lat.reserve(reads);
  Random rng(42);
  for (size_t i = 0; i < reads; ++i) {
    uint64_t key = rng.Uniform(preload);
    met::Timer t;
    uint64_t v = 0;
    bool found = index->Lookup(key, &v);
    lat.push_back(t.ElapsedNanos());
    if (!found) std::abort();  // preloaded key lost: a correctness bug
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writer_threads) th.join();
  index->WaitForMergeIdle();
  return P99(&lat);
}

// Rows keep the "mode" key so they line up with the committed baseline.
constexpr const char* kMode = "olc";

void Run(size_t preload, size_t per_writer, size_t reads) {
  double base = 0;
  for (int writers : {1, 2, 4, 8, 16}) {
    double mops = InsertSweep(writers, preload, per_writer);
    if (writers == 1) base = mops;
    std::printf("  %-7s writers=%-2d %7.2f Mops aggregate (%.2fx vs 1)\n",
                kMode, writers, mops, base > 0 ? mops / base : 1.0);
    bench::Row({{"section", "insert_scaling"},
                {"mode", kMode},
                {"writers", writers},
                {"insert_mops", mops},
                {"scaling_vs_1", base > 0 ? mops / base : 1.0}});
  }

  Index index(BenchConfig());
  for (uint64_t i = 0; i < preload; ++i) IndexInsert(index, i, i + 1);
  index.WaitForMergeIdle();
  uint64_t quiet = ReadP99(&index, preload, reads, /*writers=*/0);
  uint64_t busy = ReadP99(&index, preload, reads, /*writers=*/8);
  double ratio = quiet > 0 ? static_cast<double>(busy) / quiet : 0.0;
  std::printf(
      "  %-7s read p99 quiet %6llu ns | during 8 writers %6llu ns (%.2fx)\n",
      kMode, (unsigned long long)quiet, (unsigned long long)busy, ratio);
  bench::Row({{"section", "read_p99"},
              {"mode", kMode},
              {"read_only_p99_ns", quiet},
              {"read_during_8w_p99_ns", busy},
              {"p99_ratio", ratio}});
}

}  // namespace
}  // namespace met

int main(int argc, char** argv) {
  met::bench::Reporter::Get().ParseArgs(&argc, argv);
  met::bench::Title("OLC writer scaling: dynamic-stage mutation concurrency");
  met::bench::Note(
      "olc = OlcConcurrentHybridBTree (optimistic lock coupling). Disjoint "
      "fresh-key inserts, background merges enabled");
  size_t preload = 100000 * met::bench::Scale();
  size_t per_writer = 150000 * met::bench::Scale();
  size_t reads = 200000 * met::bench::Scale();
  met::Run(preload, per_writer, reads);
  met::bench::Reporter::Get().WriteIfEnabled();
  return 0;
}
