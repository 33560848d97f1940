// Merge and scan machinery shared by the blocking HybridIndex and the
// concurrent epoch-swapped variant (olc_hybrid.h): key helpers,
// sorted-entry collection, a k-way merged scan with shadow/tombstone
// resolution and refetching, and the one overlay every static-stage merge
// feeds to the stage's Build.
#ifndef MET_HYBRID_MERGE_CORE_H_
#define MET_HYBRID_MERGE_CORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "btree/compact_btree.h"  // MergeEntry

namespace met {
namespace hybrid {

template <typename Key>
Key MinKey() {
  if constexpr (std::is_same_v<Key, std::string>) {
    return std::string();
  } else {
    return Key{0};
  }
}

/// The representation Bloom filters hash a key through.
template <typename Key>
auto BloomKeyOf(const Key& key) {
  if constexpr (std::is_same_v<Key, std::string>) {
    return std::string_view(key);
  } else {
    return static_cast<uint64_t>(key);
  }
}

/// Streams a stage's full sorted contents into MergeEntry records;
/// `tombstone` values become deleted entries.
template <typename Key, typename Value, typename Stage>
void CollectSortedEntries(const Stage& stage, Value tombstone,
                          std::vector<MergeEntry<Key, Value>>* out) {
  std::vector<std::pair<Key, Value>> pairs;
  pairs.reserve(stage.size());
  stage.ScanPairs(MinKey<Key>(), stage.size(), &pairs);
  out->reserve(out->size() + pairs.size());
  for (auto& p : pairs)
    out->push_back({std::move(p.first), p.second, p.second == tombstone});
}

/// Partitions drained entries for the kMergeCold strategy: live entries
/// whose key is in `hot_keys` move to `hot` (they stay dynamic); everything
/// else — cold entries and all tombstones — remains in `entries`.
template <typename Key, typename Value, typename HotSet>
void SplitHotCold(std::vector<MergeEntry<Key, Value>>* entries,
                  const HotSet& hot_keys,
                  std::vector<std::pair<Key, Value>>* hot) {
  std::vector<MergeEntry<Key, Value>> cold;
  cold.reserve(entries->size());
  for (auto& e : *entries) {
    if (!e.deleted && hot_keys.count(e.key) > 0)
      hot->emplace_back(e.key, e.value);
    else
      cold.push_back(std::move(e));
  }
  entries->swap(cold);
}

/// Per-stage fetcher for MergedScan: appends up to `n` sorted pairs with
/// key >= `from` to `out`. std::function costs one indirect call per batch,
/// not per entry.
template <typename Key, typename Value>
using StageFetcher = std::function<void(
    const Key& from, size_t n, std::vector<std::pair<Key, Value>>* out)>;

/// Collects up to `n` values from keys >= `key` in key order across up to
/// `kStages` sorted sources, where earlier stages shadow later ones and
/// `tombstone` values delete. Starts by fetching `n` entries per stage; when
/// tombstones or shadows consume the quota, refetches with a doubled batch.
/// A capped stage may have more entries past its last fetched key, so merged
/// output beyond that key cannot be trusted — results are always a correct
/// prefix of the logical scan, never emitted from a partial merge.
template <typename Key, typename Value, size_t kStages>
size_t MergedScan(const Key& key, size_t n, Value tombstone,
                  std::vector<Value>* out,
                  const std::array<StageFetcher<Key, Value>, kStages>& fetch) {
  std::array<std::vector<std::pair<Key, Value>>, kStages> got;
  std::vector<Value> tmp;
  size_t batch = n;
  for (;;) {
    std::array<bool, kStages> capped{};
    for (size_t s = 0; s < kStages; ++s) {
      got[s].clear();
      if (fetch[s]) fetch[s](key, batch, &got[s]);
      capped[s] = got[s].size() == batch;
    }
    auto trusted = [&](const Key& k) {
      for (size_t s = 0; s < kStages; ++s)
        if (capped[s] && got[s].back().first < k) return false;
      return true;
    };
    tmp.clear();
    std::array<size_t, kStages> idx{};
    size_t cnt = 0;
    bool incomplete = false;
    while (cnt < n) {
      size_t win = kStages;  // stage holding the smallest next key
      for (size_t s = 0; s < kStages; ++s) {
        if (idx[s] >= got[s].size()) continue;
        if (win == kStages || got[s][idx[s]].first < got[win][idx[win]].first)
          win = s;
      }
      if (win == kStages) break;  // every stage exhausted
      const auto& e = got[win][idx[win]];
      // Later stages holding the same key are shadowed: skip their copy.
      for (size_t s = win + 1; s < kStages; ++s)
        if (idx[s] < got[s].size() && got[s][idx[s]].first == e.first)
          ++idx[s];
      if (!trusted(e.first)) {
        incomplete = true;
        break;
      }
      if (e.second != tombstone) {
        tmp.push_back(e.second);
        ++cnt;
      }
      ++idx[win];
    }
    // Falling short while a stage was capped means more entries may exist
    // past the fetched window even if every merged entry was trusted.
    if (cnt < n) {
      for (bool c : capped) incomplete = incomplete || c;
    }
    if (cnt >= n || !incomplete) {
      if (out != nullptr) out->insert(out->end(), tmp.begin(), tmp.end());
      return cnt;
    }
    batch *= 2;  // shadows/tombstones consumed the quota: refetch deeper
  }
}

/// The hybrid index's one merge rule (Section 5.2.1): the sorted, unique
/// `updates` overlaid on `base`'s entries. An update replaces the base entry
/// with its key and a deleted update drops it. Returns the sorted, unique,
/// live entries, ready for the stage's Build. `base` is read a chunk at a
/// time through its const ScanPairs, so the concurrent hybrid can rebuild
/// from a static stage that readers are still probing.
template <typename Key, typename Value, typename Stage>
std::vector<MergeEntry<Key, Value>> Overlay(
    const Stage& base, std::vector<MergeEntry<Key, Value>> updates) {
  constexpr size_t kChunk = 4096;
  std::vector<MergeEntry<Key, Value>> out;
  out.reserve(base.size() + updates.size());
  size_t j = 0;
  auto take_update = [&] {
    if (!updates[j].deleted) out.push_back(std::move(updates[j]));
    ++j;
  };
  std::vector<std::pair<Key, Value>> chunk;
  Key from = MinKey<Key>();
  size_t first = 0;  // later chunks restart at the previous chunk's last key
  for (bool more = true; more;) {
    chunk.clear();
    base.ScanPairs(from, kChunk, &chunk);
    more = chunk.size() == kChunk;
    if (more) from = chunk.back().first;
    for (size_t i = first; i < chunk.size(); ++i) {
      auto& [key, value] = chunk[i];
      while (j < updates.size() && updates[j].key < key) take_update();
      if (j < updates.size() && updates[j].key == key)
        take_update();  // shadows or deletes the base entry
      else
        out.push_back({std::move(key), value, false});
    }
    first = 1;
  }
  while (j < updates.size()) take_update();
  return out;
}

}  // namespace hybrid
}  // namespace met

#endif  // MET_HYBRID_MERGE_CORE_H_
