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
// Batched lookup: every key descends the same number of implicit levels,
// so LookupBatch runs 16 descents one binary-search step at a time in
// lockstep, prefetching each probe's next comparison key while the others
// step (the group-prefetching shape of fst_batch.cc, without a state enum).
//
// Merge support (Section 5.2.1): the hybrid index overlays its dynamic
// stage on this tree's entries (hybrid::Overlay, hybrid/merge_core.h) and
// Build()s a fresh tree from the result; the implicit internal levels are
// rebuilt bottom-up.
#ifndef MET_BTREE_COMPACT_BTREE_H_
#define MET_BTREE_COMPACT_BTREE_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "check/fwd.h"
#include "common/assert.h"
#include "common/index_api.h"
#include "common/prefetch.h"
#include "prof/memory_breakdown.h"

namespace met {

/// An entry fed into Build, or into a hybrid merge (hybrid::Overlay), where
/// `deleted` marks a tombstone that removes the matching key.
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

  /// Unified point lookup (met::ReadOnlyPointIndex surface).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    size_t idx = LowerBoundIndex(key);
    if (idx >= store_.size() || !(KeyEquals(store_.KeyAt(idx), key))) return false;
    if (value != nullptr) *value = store_.ValueAt(idx);
    return true;
  }

  /// Index of the first entry with key >= `key` (== size() if none).
  /// Descends the implicit separator levels top-down: at each level the
  /// candidate separators for the current search range are contiguous, so a
  /// group's children are located by index arithmetic, not pointers.
  size_t LowerBoundIndex(const Key& key) const {
    Descent d = DescentStart();
    while (d.lo < d.hi)
      DescentStep(&d, KeyLess(store_.KeyAt(DescentEntry(d)), key));
    return d.lo;
  }

  /// Batched unified lookup (dispatched by met::LookupBatch), fixed-size
  /// keys only. Every probe descends the same implicit levels, so a group of
  /// kBatchGroup probes advances one binary-search step per round in
  /// lockstep; each probe prefetches the key its next step compares against
  /// (a separator's entry, then the leaf-group midpoints) and, once its
  /// lower bound is known, its value. The descent is LowerBoundIndex's own
  /// DescentStep, so results are identical to scalar Lookup; checked builds
  /// assert that per key.
  void LookupBatch(const Key* keys, size_t n, LookupResult* out) const
    requires std::is_same_v<Store, compact_internal::FlatStore<Key, Value>>
  {
    const size_t size = store_.size();
    Descent d[kBatchGroup] = {};
    size_t e[kBatchGroup] = {};  // d[i]'s next comparison entry
    for (size_t base = 0; base < n; base += kBatchGroup) {
      const size_t g = std::min(kBatchGroup, n - base);
      size_t live = 0;
      for (size_t i = 0; i < g; ++i) {
        d[i] = DescentStart();
        if (d[i].lo < d[i].hi) {
          e[i] = DescentEntry(d[i]);
          PrefetchRead(&store_.KeyAt(e[i]));
          ++live;
        }
      }
      while (live > 0) {
        for (size_t i = 0; i < g; ++i) {
          if (d[i].lo >= d[i].hi) continue;
          DescentStep(&d[i], KeyLess(store_.KeyAt(e[i]), keys[base + i]));
          if (d[i].lo < d[i].hi) {
            e[i] = DescentEntry(d[i]);
            PrefetchRead(&store_.KeyAt(e[i]));
          } else {
            --live;
            if (d[i].lo < size) PrefetchRead(&store_.ValueAt(d[i].lo));
          }
        }
      }
      for (size_t i = 0; i < g; ++i) {
        const size_t idx = d[i].lo;
        const bool hit =
            idx < size && KeyEquals(store_.KeyAt(idx), keys[base + i]);
        out[base + i].found = hit;
        out[base + i].value = hit ? store_.ValueAt(idx) : 0;
      }
    }
#if MET_CHECK_ENABLED
    for (size_t i = 0; i < n; ++i) {
      Value v{};
      const bool found = Lookup(keys[i], &v);
      MET_DCHECK(out[i].found == found && (!found || out[i].value == v),
                 "batched CompactBTree lookup diverged from scalar");
    }
#endif
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

  /// Probes per LookupBatch group (the FST kernel's width).
  static constexpr size_t kBatchGroup = 16;

  /// One lower-bound descent in flight: a binary search over [lo, hi) of
  /// separator level `level - 1`, or of the leaf array once `level` is 0.
  /// `first` is where the current range starts. The descent is finished
  /// when the leaf range is empty; the lower bound is then `lo`.
  struct Descent {
    size_t level;
    size_t first;
    size_t lo;
    size_t hi;
  };

  Descent DescentStart() const {
    if (levels_.empty()) return Descent{0, 0, 0, store_.size()};
    return Descent{levels_.size(), 0, 0, levels_.back().size()};
  }

  /// Entry index of the key the descent's next step compares against: the
  /// separator at the range midpoint, or the leaf midpoint itself.
  size_t DescentEntry(const Descent& d) const {
    const size_t mid = (d.lo + d.hi) / 2;
    return d.level == 0 ? mid : levels_[d.level - 1][mid];
  }

  /// Applies one comparison (`less`: the DescentEntry key < the search key).
  /// When a separator level's search ends, descends into the group whose
  /// first key precedes the search key (or the range's first group); its
  /// children are the next Fanout-sized range of the level below.
  void DescentStep(Descent* d, bool less) const {
    const size_t mid = (d->lo + d->hi) / 2;
    if (less)
      d->lo = mid + 1;
    else
      d->hi = mid;
    if (d->lo < d->hi || d->level == 0) return;
    const size_t group = d->lo == d->first ? d->first : d->lo - 1;
    --d->level;
    const size_t below =
        d->level == 0 ? store_.size() : levels_[d->level - 1].size();
    d->first = d->lo = group * Fanout;
    d->hi = std::min(d->lo + Fanout, below);
  }

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
