// Compressed (static) B+tree: the Compression Rule (Section 2.4) applied on
// top of the Compact B+tree. Leaf pages are block-compressed with zlib
// (stand-in for Snappy, which is not available offline; see DESIGN.md) so a
// point query decompresses at most one page. A CLOCK-replacement node cache
// keeps recently decompressed pages to amortize the decompression cost.
#ifndef MET_BTREE_COMPRESSED_BTREE_H_
#define MET_BTREE_COMPRESSED_BTREE_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/compact_btree.h"
#include "check/fwd.h"
#include "common/assert.h"
#include "prof/memory_breakdown.h"

namespace met {

namespace compressed_internal {

/// zlib round-trip helpers (level 1: favour speed like Snappy).
std::string Deflate(const std::string& raw);
std::string Inflate(const std::string& compressed, size_t raw_size);

/// Non-aborting Inflate used by the met::check validator: returns false on a
/// corrupt stream or decoded-size mismatch instead of asserting.
bool TryInflate(const std::string& compressed, size_t raw_size,
                std::string* out);

}  // namespace compressed_internal

template <typename Key, typename Value = uint64_t, int PageEntries = 64>
class CompressedBTree {
 public:
  using Entry = MergeEntry<Key, Value>;

  explicit CompressedBTree(size_t cache_pages = 1024) : cache_(cache_pages) {}

  /// Builds from sorted, unique entries.
  void Build(std::vector<Entry>&& entries) {
    pages_.clear();
    first_keys_.clear();
    size_ = entries.size();
    for (size_t i = 0; i < entries.size(); i += PageEntries) {
      size_t n = std::min<size_t>(PageEntries, entries.size() - i);
      first_keys_.push_back(entries[i].key);
      std::string raw = SerializePage(&entries[i], n);
      pages_.push_back({compressed_internal::Deflate(raw), raw.size(),
                        static_cast<uint32_t>(n)});
    }
    cache_.Reset(pages_.size());
  }

  /// Unified point lookup (met::ReadOnlyPointIndex surface).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    if (pages_.empty()) return false;
    size_t p = PageFor(key);
    const std::vector<Entry>& entries = PageEntriesRef(p);
    auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const Entry& e, const Key& k) { return e.key < k; });
    if (it == entries.end() || !(it->key == key)) return false;
    if (value != nullptr) *value = it->value;
    return true;
  }

  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    if (pages_.empty()) return 0;
    size_t cnt = 0;
    size_t p = PageFor(key);
    bool first = true;
    while (p < pages_.size() && cnt < n) {
      const std::vector<Entry>& entries = PageEntriesRef(p);
      size_t start = 0;
      if (first) {
        start = std::lower_bound(
                    entries.begin(), entries.end(), key,
                    [](const Entry& e, const Key& k) { return e.key < k; }) -
                entries.begin();
        first = false;
      }
      for (size_t i = start; i < entries.size() && cnt < n; ++i, ++cnt)
        if (out != nullptr) out->push_back(entries[i].value);
      ++p;
    }
    return cnt;
  }

  /// Scan that also materializes keys (hybrid-index stage interface).
  size_t ScanPairs(const Key& key, size_t n,
                   std::vector<std::pair<Key, Value>>* out) const {
    if (pages_.empty()) return 0;
    size_t cnt = 0;
    size_t p = PageFor(key);
    bool first = true;
    while (p < pages_.size() && cnt < n) {
      const std::vector<Entry>& entries = PageEntriesRef(p);
      size_t start = 0;
      if (first) {
        start = std::lower_bound(
                    entries.begin(), entries.end(), key,
                    [](const Entry& e, const Key& k) { return e.key < k; }) -
                entries.begin();
        first = false;
      }
      for (size_t i = start; i < entries.size() && cnt < n; ++i, ++cnt)
        out->emplace_back(entries[i].key, entries[i].value);
      ++p;
    }
    return cnt;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& p : pages_) bytes += p.blob.capacity();
    for (const auto& k : first_keys_) bytes += sizeof(Key) + btree_internal::KeyHeapBytes(k);
    bytes += cache_.MemoryBytes();
    return bytes;
  }

  /// Component attribution; TotalBytes() == MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const {
    size_t blob_bytes = 0, dir_bytes = 0;
    for (const auto& p : pages_) blob_bytes += p.blob.capacity();
    for (const auto& k : first_keys_)
      dir_bytes += sizeof(Key) + btree_internal::KeyHeapBytes(k);
    MemoryBreakdown b("compressed_btree");
    b.Add("compressed_pages", blob_bytes);
    b.Add("page_directory", dir_bytes);
    b.Add("decompressed_cache", cache_.MemoryBytes());
    return b;
  }

  /// Verifies page-directory order, per-page zlib round-trips, and entry
  /// ordering. No-op unless MET_CHECK_ENABLED; see
  /// check/compressed_btree_check.h.
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return ValidateImpl(os);
#else
    (void)os;
    return true;
#endif
  }

  /// Cache hit statistics (Figure 5.9 ablation).
  size_t cache_hits() const { return cache_.hits; }
  size_t cache_misses() const { return cache_.misses; }
  void set_cache_pages(size_t n) { cache_.capacity = n; cache_.Reset(pages_.size()); }

 private:
  struct Page {
    std::string blob;
    size_t raw_size;
    uint32_t count;
  };

  // CLOCK-replacement cache of decompressed pages.
  struct Cache {
    explicit Cache(size_t cap) : capacity(cap) {}

    void Reset(size_t num_pages) {
      slots.assign(capacity, {SIZE_MAX, {}, false});
      page_to_slot.assign(num_pages, SIZE_MAX);
      hand = 0;
      hits = misses = 0;
    }

    struct Slot {
      size_t page = SIZE_MAX;
      std::vector<Entry> entries;
      bool referenced = false;
    };

    size_t capacity;
    mutable std::vector<Slot> slots;
    mutable std::vector<size_t> page_to_slot;
    mutable size_t hand = 0;
    mutable size_t hits = 0, misses = 0;

    size_t MemoryBytes() const {
      size_t bytes = 0;
      for (const auto& s : slots) {
        bytes += s.entries.capacity() * sizeof(Entry);
        for (const auto& e : s.entries)
          bytes += btree_internal::KeyHeapBytes(e.key);
      }
      return bytes;
    }
  };

  static std::string SerializePage(const Entry* entries, size_t n) {
    std::string raw;
    for (size_t i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<Key, std::string>) {
        uint32_t len = static_cast<uint32_t>(entries[i].key.size());
        raw.append(reinterpret_cast<const char*>(&len), sizeof(len));
        raw.append(entries[i].key);
      } else {
        raw.append(reinterpret_cast<const char*>(&entries[i].key), sizeof(Key));
      }
      raw.append(reinterpret_cast<const char*>(&entries[i].value), sizeof(Value));
    }
    return raw;
  }

  static std::vector<Entry> DeserializePage(const std::string& raw, uint32_t n) {
    std::vector<Entry> entries;
    entries.reserve(n);
    size_t off = 0;
    for (uint32_t i = 0; i < n; ++i) {
      Entry e;
      if constexpr (std::is_same_v<Key, std::string>) {
        uint32_t len;
        std::memcpy(&len, raw.data() + off, sizeof(len));
        off += sizeof(len);
        e.key.assign(raw.data() + off, len);
        off += len;
      } else {
        std::memcpy(&e.key, raw.data() + off, sizeof(Key));
        off += sizeof(Key);
      }
      std::memcpy(&e.value, raw.data() + off, sizeof(Value));
      off += sizeof(Value);
      entries.push_back(std::move(e));
    }
    return entries;
  }

  size_t PageFor(const Key& key) const {
    // Last page whose first key is <= key.
    auto it = std::upper_bound(first_keys_.begin(), first_keys_.end(), key);
    return it == first_keys_.begin() ? 0 : (it - first_keys_.begin()) - 1;
  }

  const std::vector<Entry>& PageEntriesRef(size_t p) const {
    if (cache_.capacity > 0 && cache_.page_to_slot[p] != SIZE_MAX) {
      auto& slot = cache_.slots[cache_.page_to_slot[p]];
      slot.referenced = true;
      ++cache_.hits;
      return slot.entries;
    }
    ++cache_.misses;
    std::vector<Entry> entries =
        DeserializePage(compressed_internal::Inflate(pages_[p].blob,
                                                     pages_[p].raw_size),
                        pages_[p].count);
    if (cache_.capacity == 0) {
      scratch_ = std::move(entries);
      return scratch_;
    }
    // CLOCK eviction.
    while (true) {
      auto& slot = cache_.slots[cache_.hand];
      if (!slot.referenced) {
        if (slot.page != SIZE_MAX) cache_.page_to_slot[slot.page] = SIZE_MAX;
        slot.page = p;
        slot.entries = std::move(entries);
        slot.referenced = true;
        cache_.page_to_slot[p] = cache_.hand;
        cache_.hand = (cache_.hand + 1) % cache_.capacity;
        return slot.entries;
      }
      slot.referenced = false;
      cache_.hand = (cache_.hand + 1) % cache_.capacity;
    }
  }

  bool ValidateImpl(std::ostream& os) const;  // check/compressed_btree_check.h
  friend struct check::TestAccess;

  std::vector<Page> pages_;
  std::vector<Key> first_keys_;
  size_t size_ = 0;
  mutable Cache cache_;
  mutable std::vector<Entry> scratch_;
};

}  // namespace met

#endif  // MET_BTREE_COMPRESSED_BTREE_H_
