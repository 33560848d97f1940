// Compact (static) B+tree: the result of applying the Compaction and
// Structural-Reduction rules of Chapter 2 to the B+tree.
//
//  * Compaction: every "node" (entry group) is 100% full; no slack slots.
//  * Structural reduction: no child pointers. The leaf level is one
//    contiguous sorted array; the internal levels are implicit — each level
//    stores the leaf index of the first entry of every Fanout-sized group of
//    the level below, so a child's location is computed, not stored.
//
// For std::string keys the leaf keys live in a single concatenated byte blob
// addressed by 32-bit offsets (removing per-string allocation overhead), and
// the internal levels reference leaf indices, so they cost 4 bytes per
// separator regardless of key size.
//
// Merge support (Section 5.2.1): MergeApply() appends a sorted run of new
// entries after the existing sorted entries and restores order with an
// in-place merge, then rebuilds the implicit internal levels bottom-up.
#ifndef MET_BTREE_COMPACT_BTREE_H_
#define MET_BTREE_COMPACT_BTREE_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "check/fwd.h"
#include "common/assert.h"
#include "prof/memory_breakdown.h"

namespace met {

/// An entry fed into Build/MergeApply. `deleted` marks a tombstone that
/// removes the matching key from the static stage during merge.
template <typename Key, typename Value>
struct MergeEntry {
  Key key;
  Value value;
  bool deleted = false;
};

namespace compact_internal {

/// Storage policy for fixed-size keys: one struct-of-arrays pair.
template <typename Key, typename Value>
class FlatStore {
 public:
  using KeyView = const Key&;

  void Clear() {
    keys_.clear();
    values_.clear();
  }

  size_t size() const { return keys_.size(); }
  KeyView KeyAt(size_t i) const { return keys_[i]; }
  const Value& ValueAt(size_t i) const { return values_[i]; }
  Value& MutableValueAt(size_t i) { return values_[i]; }

  void Append(const Key& k, const Value& v) {
    keys_.push_back(k);
    values_.push_back(v);
  }

  /// Replaces contents with `entries` (sorted, unique, no tombstones).
  void Assign(std::vector<MergeEntry<Key, Value>>&& entries) {
    Clear();
    keys_.reserve(entries.size());
    values_.reserve(entries.size());
    for (auto& e : entries) Append(e.key, e.value);
  }

  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(Key) + values_.capacity() * sizeof(Value);
  }

  /// Same terms as MemoryBytes(), attributed per column.
  void AppendBreakdown(MemoryBreakdown* b) const {
    b->Add("keys", keys_.capacity() * sizeof(Key));
    b->Add("values", values_.capacity() * sizeof(Value));
  }

  void ShrinkToFit() {
    keys_.shrink_to_fit();
    values_.shrink_to_fit();
  }

  /// met::check hook: store-level consistency.
  bool StoreConsistent(std::string* detail) const {
    if (keys_.size() != values_.size()) {
      *detail = "key/value column size mismatch";
      return false;
    }
    return true;
  }

 private:
  friend struct check::TestAccess;

  std::vector<Key> keys_;
  std::vector<Value> values_;
};

/// Storage policy for string keys: concatenated blob + offsets.
template <typename Value>
class BlobStore {
 public:
  using KeyView = std::string_view;

  void Clear() {
    blob_.clear();
    offsets_.assign(1, 0);
    values_.clear();
  }

  BlobStore() { offsets_.push_back(0); }

  size_t size() const { return values_.size(); }

  std::string_view KeyAt(size_t i) const {
    return std::string_view(blob_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  const Value& ValueAt(size_t i) const { return values_[i]; }
  Value& MutableValueAt(size_t i) { return values_[i]; }

  void Append(std::string_view k, const Value& v) {
    blob_.append(k);
    offsets_.push_back(static_cast<uint32_t>(blob_.size()));
    values_.push_back(v);
  }

  void Assign(std::vector<MergeEntry<std::string, Value>>&& entries) {
    Clear();
    values_.reserve(entries.size());
    offsets_.reserve(entries.size() + 1);
    for (auto& e : entries) Append(e.key, e.value);
  }

  size_t MemoryBytes() const {
    return blob_.capacity() + offsets_.capacity() * sizeof(uint32_t) +
           values_.capacity() * sizeof(Value);
  }

  /// Same terms as MemoryBytes(), attributed per column.
  void AppendBreakdown(MemoryBreakdown* b) const {
    b->Add("key_blob", blob_.capacity());
    b->Add("key_offsets", offsets_.capacity() * sizeof(uint32_t));
    b->Add("values", values_.capacity() * sizeof(Value));
  }

  void ShrinkToFit() {
    blob_.shrink_to_fit();
    offsets_.shrink_to_fit();
    values_.shrink_to_fit();
  }

  /// met::check hook: offset-table consistency (monotone, bounded by blob).
  bool StoreConsistent(std::string* detail) const {
    if (offsets_.size() != values_.size() + 1 || offsets_[0] != 0) {
      *detail = "offset table size mismatch";
      return false;
    }
    for (size_t i = 1; i < offsets_.size(); ++i) {
      if (offsets_[i] < offsets_[i - 1]) {
        *detail = "offsets not monotone at " + std::to_string(i);
        return false;
      }
    }
    if (offsets_.back() != blob_.size()) {
      *detail = "last offset does not match blob size";
      return false;
    }
    return true;
  }

 private:
  friend struct check::TestAccess;

  std::string blob_;
  std::vector<uint32_t> offsets_;
  std::vector<Value> values_;
};

template <typename Key, typename Value>
struct StorePolicy {
  using type = FlatStore<Key, Value>;
};

template <typename Value>
struct StorePolicy<std::string, Value> {
  using type = BlobStore<Value>;
};

}  // namespace compact_internal

template <typename Key, typename Value = uint64_t, int Fanout = 32>
class CompactBTree {
 public:
  using Store = typename compact_internal::StorePolicy<Key, Value>::type;
  using KeyView = typename Store::KeyView;
  using Entry = MergeEntry<Key, Value>;

  CompactBTree() = default;

  /// Builds from sorted, unique (key, value) pairs.
  void Build(std::vector<Entry>&& entries) {
    MET_DCHECK(std::is_sorted(entries.begin(), entries.end(),
                          [](const Entry& a, const Entry& b) { return a.key < b.key; }));
    store_.Assign(std::move(entries));
    store_.ShrinkToFit();
    BuildLevels();
  }

  /// Merges a sorted run of new entries (which may shadow or tombstone
  /// existing keys) into this tree and rebuilds the internal levels.
  /// New entries win over existing entries with equal keys.
  void MergeApply(const std::vector<Entry>& updates) {
    std::vector<Entry> merged;
    merged.reserve(store_.size() + updates.size());
    size_t i = 0, j = 0;
    while (i < store_.size() || j < updates.size()) {
      if (j >= updates.size()) {
        merged.push_back(Entry{Key(store_.KeyAt(i)), store_.ValueAt(i), false});
        ++i;
      } else if (i >= store_.size()) {
        if (!updates[j].deleted) merged.push_back(updates[j]);
        ++j;
      } else {
        KeyView sk = store_.KeyAt(i);
        const Key& uk = updates[j].key;
        if (sk < uk) {
          merged.push_back(Entry{Key(sk), store_.ValueAt(i), false});
          ++i;
        } else if (uk < sk) {
          if (!updates[j].deleted) merged.push_back(updates[j]);
          ++j;
        } else {  // equal: update shadows (or deletes) the static entry
          if (!updates[j].deleted) merged.push_back(updates[j]);
          ++i;
          ++j;
        }
      }
    }
    store_.Assign(std::move(merged));
    store_.ShrinkToFit();
    BuildLevels();
  }

  /// Unified point lookup (met::ReadOnlyPointIndex surface).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    size_t idx = LowerBoundIndex(key);
    if (idx >= store_.size() || !(KeyEquals(store_.KeyAt(idx), key))) return false;
    if (value != nullptr) *value = store_.ValueAt(idx);
    return true;
  }

  /// Overwrites the value of an existing key in place (used by hybrid
  /// secondary indexes). Returns false if absent.
  bool UpdateInPlace(const Key& key, const Value& value) {
    size_t idx = LowerBoundIndex(key);
    if (idx >= store_.size() || !(KeyEquals(store_.KeyAt(idx), key))) return false;
    store_.MutableValueAt(idx) = value;
    return true;
  }

  /// Index of the first entry with key >= `key` (== size() if none).
  /// Descends the implicit separator levels top-down: at each level the
  /// candidate separators for the current search range are contiguous, so a
  /// group's children are located by index arithmetic, not pointers.
  size_t LowerBoundIndex(const Key& key) const {
    size_t lo = 0, hi = store_.size();
    if (!levels_.empty()) {
      size_t idx_lo = 0, idx_hi = levels_.back().size();
      for (size_t l = levels_.size(); l-- > 0;) {
        const std::vector<uint32_t>& level = levels_[l];
        // First separator in [idx_lo, idx_hi) whose key is >= `key`.
        size_t a = idx_lo, b = idx_hi;
        while (a < b) {
          size_t mid = (a + b) / 2;
          if (KeyLess(store_.KeyAt(level[mid]), key))
            a = mid + 1;
          else
            b = mid;
        }
        // Descend into the group whose first key precedes `key`.
        size_t group = (a == idx_lo) ? idx_lo : a - 1;
        if (l > 0) {
          idx_lo = group * Fanout;
          idx_hi = std::min(idx_lo + Fanout, levels_[l - 1].size());
        } else {
          lo = group * Fanout;
          hi = std::min(lo + Fanout, store_.size());
        }
      }
    }
    // Final binary search within the leaf group.
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (KeyLess(store_.KeyAt(mid), key))
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  class Iterator {
   public:
    Iterator() = default;
    Iterator(const CompactBTree* tree, size_t idx) : tree_(tree), idx_(idx) {}

    bool Valid() const { return tree_ != nullptr && idx_ < tree_->size(); }
    KeyView key() const { return tree_->store_.KeyAt(idx_); }
    const Value& value() const { return tree_->store_.ValueAt(idx_); }
    void Next() { ++idx_; }
    size_t index() const { return idx_; }

   private:
    const CompactBTree* tree_ = nullptr;
    size_t idx_ = 0;
  };

  Iterator Begin() const { return Iterator(this, 0); }
  Iterator LowerBound(const Key& key) const {
    return Iterator(this, LowerBoundIndex(key));
  }

  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    size_t cnt = 0;
    for (Iterator it = LowerBound(key); it.Valid() && cnt < n; it.Next(), ++cnt)
      if (out != nullptr) out->push_back(it.value());
    return cnt;
  }

  /// Scan that also materializes keys (hybrid-index stage interface).
  size_t ScanPairs(const Key& key, size_t n,
                   std::vector<std::pair<Key, Value>>* out) const {
    size_t cnt = 0;
    for (Iterator it = LowerBound(key); it.Valid() && cnt < n; it.Next(), ++cnt)
      out->emplace_back(Key(it.key()), it.value());
    return cnt;
  }

  size_t size() const { return store_.size(); }
  bool empty() const { return store_.size() == 0; }

  size_t MemoryUse() const { return MemoryBytes(); }
  size_t MemoryBytes() const {
    size_t bytes = store_.MemoryBytes();
    for (const auto& level : levels_) bytes += level.capacity() * sizeof(uint32_t);
    return bytes;
  }

  /// Component attribution; TotalBytes() == MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("compact_btree");
    MemoryBreakdown leaves("leaf_store");
    store_.AppendBreakdown(&leaves);
    b.AddChild("leaf_store", std::move(leaves));
    size_t sep = 0;
    for (const auto& level : levels_) sep += level.capacity() * sizeof(uint32_t);
    b.Add("separator_levels", sep);
    return b;
  }

  /// Read access for merges into other structures.
  KeyView KeyAt(size_t i) const { return store_.KeyAt(i); }
  const Value& ValueAt(size_t i) const { return store_.ValueAt(i); }

  /// Verifies sorted-unique leaf order and the implicit separator levels.
  /// No-op unless MET_CHECK_ENABLED; see check/compact_btree_check.h.
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return ValidateImpl(os);
#else
    (void)os;
    return true;
#endif
  }

 private:
  bool ValidateImpl(std::ostream& os) const;  // check/compact_btree_check.h
  friend struct check::TestAccess;

  static bool KeyLess(KeyView a, const Key& b) { return a < b; }
  static bool KeyEquals(KeyView a, const Key& b) { return a == b; }

  void BuildLevels() {
    levels_.clear();
    size_t prev_size = store_.size();
    // Every separator stores the *entry* index of its group's first key, so
    // comparisons at any level read straight from the leaf store.
    while (prev_size > Fanout) {
      std::vector<uint32_t> level;
      size_t groups = (prev_size + Fanout - 1) / Fanout;
      level.reserve(groups);
      for (size_t g = 0; g < groups; ++g) {
        size_t child = g * Fanout;
        uint32_t entry_idx = levels_.empty()
                                 ? static_cast<uint32_t>(child)
                                 : levels_.back()[child];
        level.push_back(entry_idx);
      }
      levels_.push_back(std::move(level));
      prev_size = groups;
    }
  }

  Store store_;
  std::vector<std::vector<uint32_t>> levels_;
};

}  // namespace met

#endif  // MET_BTREE_COMPACT_BTREE_H_
