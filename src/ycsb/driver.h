// Sharded multi-threaded YCSB serving driver for the concurrent hybrid
// index (thesis Section 5.3 serving experiments). Keys are hash-partitioned
// across independent index shards so writer threads contend only on their
// key's shard; every per-operation latency is split by whether any shard had
// a background merge in flight (obs::StallSplit), which is how
// bench_merge_pause attributes tail latency to merges.
#ifndef MET_YCSB_DRIVER_H_
#define MET_YCSB_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/hash.h"
#include "common/index_api.h"
#include "common/timer.h"
#include "obs/stall.h"
#include "ycsb/workload.h"

namespace met {
namespace ycsb {

/// Hash-partitions a keyspace over `num_shards` independent index instances.
/// Point operations route to the owning shard. Scan is served from the start
/// key's shard only — with hash partitioning a global scan would have to
/// merge all shards, so scans here measure per-shard scan cost, not global
/// range queries (documented limitation; the single-shard configuration
/// still exercises the full merged-scan path).
template <typename Index, typename Key>
class ShardedIndex {
 public:
  using Value = typename Index::Value;

  template <typename Config>
  ShardedIndex(size_t num_shards, const Config& config) {
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i)
      shards_.push_back(std::make_unique<Index>(config));
  }

  size_t ShardOf(const Key& key) const {
    uint64_t h;
    if constexpr (std::is_same_v<Key, std::string>) {
      h = MurmurHash64(std::string_view(key));
    } else {
      h = MixHash64(static_cast<uint64_t>(key));
    }
    return h % shards_.size();
  }

  // Mutations go through the unified outcome dispatchers so a shard can be
  // either a classic bool-idiom index or an outcome-native OLC structure;
  // callers branch on MutateOutcome (kRetry only ever comes from the
  // latter).
  MutateOutcome Insert(const Key& key, Value value) {
    return IndexInsert(*shards_[ShardOf(key)], key, value);
  }
  bool Lookup(const Key& key, Value* value = nullptr) const {
    return shards_[ShardOf(key)]->Lookup(key, value);
  }
  MutateOutcome Update(const Key& key, Value value) {
    return IndexUpdate(*shards_[ShardOf(key)], key, value);
  }
  MutateOutcome Remove(const Key& key) {
    return IndexRemove<Index, Key, Value>(*shards_[ShardOf(key)], key);
  }
  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    return shards_[ShardOf(key)]->Scan(key, n, out);
  }

  /// Batched point lookups (met::batch): keys are bucketed by owning shard
  /// with a counting sort, each shard's contiguous group runs through the
  /// unified met::LookupBatch (native interleaved kernel when the index has
  /// one, scalar fallback otherwise), and results scatter back to request
  /// order. out[i] matches Lookup(keys[i]) exactly.
  void LookupBatch(const Key* keys, size_t n, LookupResult* out) const {
    const size_t ns = shards_.size();
    std::vector<uint32_t> shard_of(n);
    std::vector<uint32_t> offset(ns + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      shard_of[i] = static_cast<uint32_t>(ShardOf(keys[i]));
      ++offset[shard_of[i] + 1];
    }
    for (size_t s = 0; s < ns; ++s) offset[s + 1] += offset[s];
    std::vector<Key> grouped(n);
    std::vector<uint32_t> orig(n);
    std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      uint32_t p = cursor[shard_of[i]]++;
      grouped[p] = keys[i];
      orig[p] = static_cast<uint32_t>(i);
    }
    std::vector<LookupResult> gout(n);
    for (size_t s = 0; s < ns; ++s) {
      size_t cnt = offset[s + 1] - offset[s];
      if (cnt > 0)
        met::LookupBatch(*shards_[s], grouped.data() + offset[s], cnt,
                         gout.data() + offset[s]);
    }
    for (size_t p = 0; p < n; ++p) out[orig[p]] = gout[p];
  }

  bool AnyMergeInFlight() const {
    for (const auto& s : shards_)
      if (s->MergeInFlight()) return true;
    return false;
  }
  void WaitForMergeIdle() const {
    for (const auto& s : shards_) s->WaitForMergeIdle();
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& s : shards_) n += s->size();
    return n;
  }
  size_t MemoryBytes() const {
    size_t n = 0;
    for (const auto& s : shards_) n += s->MemoryBytes();
    return n;
  }

  size_t num_shards() const { return shards_.size(); }
  Index& shard(size_t i) { return *shards_[i]; }
  const Index& shard(size_t i) const { return *shards_[i]; }

 private:
  std::vector<std::unique_ptr<Index>> shards_;
};

struct YcsbRunResult {
  size_t reads = 0;
  size_t updates = 0;
  size_t inserts = 0;
  size_t scans = 0;
  size_t read_hits = 0;
  size_t scanned_values = 0;
  double seconds = 0.0;

  size_t TotalOps() const { return reads + updates + inserts + scans; }
  double Mops() const {
    return seconds > 0.0 ? TotalOps() / seconds / 1e6 : 0.0;
  }
};

/// Runs `ops_per_thread` YCSB requests on each of `num_threads` threads
/// against a sharded index preloaded with keys [0, num_keys). `key_of` maps
/// a dataset index to a Key. Each thread generates its own request stream
/// (seed offset by thread id) and remaps insert indices into a
/// thread-disjoint range above `num_keys`, so concurrent inserts never
/// collide on a key. Per-operation latencies go to `stalls` (may be null),
/// attributed to the merge phase observed when the operation started.
///
/// `read_batch` > 1 turns on the met::batch read pipeline: consecutive kRead
/// requests accumulate (up to that many) and execute as one
/// ShardedIndex::LookupBatch. Any write or scan flushes the pending batch
/// first, so each thread still observes its own writes in order. Batched
/// reads report the amortized per-op latency to `stalls`. Requires a
/// uint64_t-valued index (the unified LookupResult type); other value types
/// silently run scalar.
template <typename Index, typename Key, typename KeyFn>
YcsbRunResult RunYcsb(ShardedIndex<Index, Key>* index, const YcsbSpec& spec,
                      size_t num_keys, size_t ops_per_thread,
                      size_t num_threads, KeyFn key_of,
                      obs::StallSplit* stalls = nullptr,
                      size_t read_batch = 1) {
  using Value = typename Index::Value;
  constexpr bool kCanBatch = std::is_same_v<Value, uint64_t>;
  std::vector<YcsbRunResult> partial(num_threads);
  auto worker = [&](size_t t) {
    YcsbSpec thread_spec = spec;
    thread_spec.seed = spec.seed + 0x9e3779b9u * (t + 1);
    std::vector<YcsbRequest> reqs =
        GenYcsbRequests(num_keys, ops_per_thread, thread_spec);
    YcsbRunResult& r = partial[t];
    std::vector<Value> scan_out;

    std::vector<Key> read_buf;
    std::vector<LookupResult> read_out;
    if (kCanBatch && read_batch > 1) {
      read_buf.reserve(read_batch);
      read_out.resize(read_batch);
    }
    auto flush_reads = [&]() {
      if constexpr (kCanBatch) {
        if (read_buf.empty()) return;
        bool merging_at_start = stalls != nullptr && index->AnyMergeInFlight();
        met::Timer batch_timer;
        index->LookupBatch(read_buf.data(), read_buf.size(), read_out.data());
        uint64_t batch_nanos = batch_timer.ElapsedNanos();
        for (size_t i = 0; i < read_buf.size(); ++i)
          if (read_out[i].found) ++r.read_hits;
        r.reads += read_buf.size();
        if (stalls != nullptr) {
          // Re-sample the merge flag at record time: a batch overlaps a
          // merge when one was in flight at its start *or* its completion
          // (a merge can start or finish mid-batch). Sampling only before
          // the batch misattributed merge-overlapped executions to the
          // idle baseline and vice versa, polluting exactly the idle-vs-
          // merge tail split this histogram exists to expose. RecordBatch
          // distributes the remainder so no nanoseconds are truncated away
          // and intra-batch samples are not byte-identical.
          bool merging = merging_at_start || index->AnyMergeInFlight();
          stalls->RecordBatch(true, merging, batch_nanos, read_buf.size());
        }
        read_buf.clear();
      }
    };

    met::Timer run_timer;
    for (const YcsbRequest& req : reqs) {
      uint64_t idx = req.key_index;
      if (req.op == YcsbOp::kInsert) {  // thread-disjoint insert keyspace
        // key_index is 64-bit end to end (workload.h); the generator hands
        // inserts indices >= num_keys, so the remap below cannot underflow
        // and the per-thread ranges [num_keys + t*ops, num_keys + (t+1)*ops)
        // stay disjoint for any run length that fits in memory.
        MET_DCHECK(idx >= num_keys);
        idx = num_keys + t * ops_per_thread + (idx - num_keys);
      }
      Key key = key_of(idx);
      if (kCanBatch && read_batch > 1) {
        if (req.op == YcsbOp::kRead) {
          read_buf.push_back(key);
          if (read_buf.size() >= read_batch) flush_reads();
          continue;
        }
        flush_reads();  // writes/scans must see all queued reads retired
      }
      bool merging = stalls != nullptr && index->AnyMergeInFlight();
      met::Timer op_timer;
      switch (req.op) {
        case YcsbOp::kRead: {
          Value v;
          if (index->Lookup(key, &v)) ++r.read_hits;
          ++r.reads;
          break;
        }
        case YcsbOp::kUpdate:
          // Upsert-on-miss, but only on a definitive miss: kRetry means an
          // exhausted restart budget with no state change, and blind-
          // inserting there would double a live key.
          if (index->Update(key, idx + 1) == MutateOutcome::kNotFound)
            index->Insert(key, idx + 1);
          ++r.updates;
          break;
        case YcsbOp::kInsert:
          index->Insert(key, idx + 1);
          ++r.inserts;
          break;
        case YcsbOp::kScan:
          scan_out.clear();
          r.scanned_values += index->Scan(key, req.scan_length, &scan_out);
          ++r.scans;
          break;
      }
      if (stalls != nullptr) {
        bool is_read = req.op == YcsbOp::kRead || req.op == YcsbOp::kScan;
        stalls->Record(is_read, merging, op_timer.ElapsedNanos());
      }
    }
    flush_reads();
    r.seconds = run_timer.ElapsedSeconds();
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();

  YcsbRunResult total;
  for (const auto& r : partial) {
    total.reads += r.reads;
    total.updates += r.updates;
    total.inserts += r.inserts;
    total.scans += r.scans;
    total.read_hits += r.read_hits;
    total.scanned_values += r.scanned_values;
    if (r.seconds > total.seconds) total.seconds = r.seconds;  // wall clock
  }
  return total;
}

}  // namespace ycsb
}  // namespace met

#endif  // MET_YCSB_DRIVER_H_
