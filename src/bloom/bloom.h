// Standard Bloom filter (RocksDB-style double hashing over a 64-bit Murmur
// hash), the point-query baseline for SuRF in Chapter 4.
#ifndef MET_BLOOM_BLOOM_H_
#define MET_BLOOM_BLOOM_H_

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/assert.h"
#include "common/hash.h"
#include "common/prefetch.h"
#include "obs/metrics.h"
#include "prof/memory_breakdown.h"

namespace met {

class BloomFilter {
 public:
  /// `bits_per_key` sizes the filter; the number of probes is chosen as
  /// k = bits_per_key * ln2 (the optimum), clamped to [1, 30].
  explicit BloomFilter(size_t num_keys, double bits_per_key = 10.0) {
    num_probes_ = static_cast<int>(bits_per_key * 0.69314718056 + 0.5);
    if (num_probes_ < 1) num_probes_ = 1;
    if (num_probes_ > 30) num_probes_ = 30;
    size_t bits = static_cast<size_t>(num_keys * bits_per_key);
    if (bits < 64) bits = 64;
    words_.assign((bits + 63) / 64, 0);
    num_bits_ = words_.size() * 64;
  }

  void Add(std::string_view key) { AddHash(MurmurHash64(key)); }
  void Add(uint64_t key) { AddHash(MixHash64(key)); }

  bool MayContain(std::string_view key) const {
    return MayContainHash(MurmurHash64(key));
  }
  bool MayContain(uint64_t key) const { return MayContainHash(MixHash64(key)); }

  void AddHash(uint64_t h) {
    uint64_t delta = (h >> 17) | (h << 47);
    for (int i = 0; i < num_probes_; ++i) {
      size_t bit = h % num_bits_;
      words_[bit / 64] |= uint64_t{1} << (bit % 64);
      h += delta;
    }
  }

  bool MayContainHash(uint64_t h) const {
    MET_OBS_DEBUG_COUNT("bloom.probe.calls");
    uint64_t delta = (h >> 17) | (h << 47);
    for (int i = 0; i < num_probes_; ++i) {
      size_t bit = h % num_bits_;
      if (!((words_[bit / 64] >> (bit % 64)) & 1)) return false;
      h += delta;
    }
    return true;
  }

  /// Batched membership probes (met::batch). Each filter probe is an
  /// independent random word access, so the batch runs all keys in lockstep:
  /// round j tests probe-word j of every still-live key, and each key issues
  /// the prefetch for its round-j+1 word before any round-j+1 word is read —
  /// 32 misses in flight instead of one. out[i] == MayContain(keys[i])
  /// exactly (asserted in checked builds).
  void MayContainBatch(const std::string_view* keys, size_t n,
                       bool* out) const {
    constexpr size_t kGroup = 32;
    uint64_t h[kGroup];
    for (size_t base = 0; base < n; base += kGroup) {
      size_t g = n - base < kGroup ? n - base : kGroup;
      for (size_t i = 0; i < g; ++i) h[i] = MurmurHash64(keys[base + i]);
      MayContainHashBatch(h, g, out + base);
    }
#if MET_CHECK_ENABLED
    for (size_t i = 0; i < n; ++i)
      MET_DCHECK(out[i] == MayContain(keys[i]),
                 "batched Bloom probe diverged from scalar");
#endif
  }

  void MayContainBatch(const uint64_t* keys, size_t n, bool* out) const {
    constexpr size_t kGroup = 32;
    uint64_t h[kGroup];
    for (size_t base = 0; base < n; base += kGroup) {
      size_t g = n - base < kGroup ? n - base : kGroup;
      for (size_t i = 0; i < g; ++i) h[i] = MixHash64(keys[base + i]);
      MayContainHashBatch(h, g, out + base);
    }
#if MET_CHECK_ENABLED
    for (size_t i = 0; i < n; ++i)
      MET_DCHECK(out[i] == MayContain(keys[i]),
                 "batched Bloom probe diverged from scalar");
#endif
  }

  /// Cross-filter fan-out (met::batch): probes ONE key, by its hash, against
  /// many filters as a single interleaved batch — the LSM read path checks
  /// every candidate SSTable's filter this way before any block I/O. The
  /// double-hash probe schedule depends only on the hash, so round j of
  /// every filter is computable up front: each round tests probe-word j of
  /// all live filters and prefetches their round-j+1 words first.
  /// out[i] == filters[i]->MayContainHash(h) exactly.
  static void MayContainHashFanOut(const BloomFilter* const* filters,
                                   size_t n, uint64_t h, bool* out) {
    constexpr size_t kGroup = 32;
    const uint64_t delta = (h >> 17) | (h << 47);
    bool alive[kGroup];
    for (size_t base = 0; base < n; base += kGroup) {
      size_t g = n - base < kGroup ? n - base : kGroup;
      int max_probes = 0;
      for (size_t i = 0; i < g; ++i) {
        const BloomFilter& f = *filters[base + i];
        alive[i] = true;
        PrefetchRead(&f.words_[(h % f.num_bits_) / 64]);
        if (f.num_probes_ > max_probes) max_probes = f.num_probes_;
      }
      uint64_t hj = h;
      for (int j = 0; j < max_probes; ++j) {
        uint64_t next = hj + delta;
        for (size_t i = 0; i < g; ++i) {
          const BloomFilter& f = *filters[base + i];
          if (!alive[i] || j >= f.num_probes_) continue;
          size_t bit = hj % f.num_bits_;
          if (j + 1 < f.num_probes_)
            PrefetchRead(&f.words_[(next % f.num_bits_) / 64]);
          if (!((f.words_[bit / 64] >> (bit % 64)) & 1)) alive[i] = false;
        }
        hj = next;
      }
      for (size_t i = 0; i < g; ++i) out[base + i] = alive[i];
    }
  }

  /// Interleaved core over precomputed hashes (n <= 32 per call from the
  /// wrappers; larger n is chunked here too).
  void MayContainHashBatch(const uint64_t* hashes, size_t n,
                           bool* out) const {
    MET_OBS_DEBUG_ADD("bloom.batch.probes", n);
    constexpr size_t kGroup = 32;
    uint64_t h[kGroup];
    uint64_t delta[kGroup];
    bool alive[kGroup];
    for (size_t base = 0; base < n; base += kGroup) {
      size_t g = n - base < kGroup ? n - base : kGroup;
      for (size_t i = 0; i < g; ++i) {
        h[i] = hashes[base + i];
        delta[i] = (h[i] >> 17) | (h[i] << 47);
        alive[i] = true;
        PrefetchRead(&words_[(h[i] % num_bits_) / 64]);
      }
      for (int j = 0; j < num_probes_; ++j) {
        for (size_t i = 0; i < g; ++i) {
          if (!alive[i]) continue;
          size_t bit = h[i] % num_bits_;
          uint64_t next = h[i] + delta[i];
          if (j + 1 < num_probes_)
            PrefetchRead(&words_[(next % num_bits_) / 64]);
          if (!((words_[bit / 64] >> (bit % 64)) & 1)) alive[i] = false;
          h[i] = next;
        }
      }
      for (size_t i = 0; i < g; ++i) out[base + i] = alive[i];
    }
  }

  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Single-component attribution; TotalBytes() == MemoryBytes().
  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("bloom");
    b.Add("bit_array", words_.size() * sizeof(uint64_t));
    return b;
  }

 private:
  int num_probes_;
  size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace met

#endif  // MET_BLOOM_BLOOM_H_
