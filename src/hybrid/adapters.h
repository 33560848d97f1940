// Stage adapters giving the four tree families the uniform interface
// HybridIndex expects (Section 5.1's Dual-Stage Transformation, step 4).
//
// Dynamic stages wrap BTree / SkipList / Art / Masstree.
// Static stages are CompactBTree / CompactSkipList / CompressedBTree used
// directly, and CompactArt / CompactMasstree behind a shim. Every static
// stage merges the same way: hybrid::Overlay (merge_core.h) reads it through
// ScanPairs and the stage is rebuilt with Build.
#ifndef MET_HYBRID_ADAPTERS_H_
#define MET_HYBRID_ADAPTERS_H_

#include <string>
#include <utility>
#include <vector>

#include "art/art.h"
#include "art/compact_art.h"
#include "btree/btree.h"
#include "btree/compact_btree.h"
#include "btree/compressed_btree.h"
#include "masstree/compact_masstree.h"
#include "masstree/masstree.h"
#include "skiplist/compact_skiplist.h"
#include "skiplist/skiplist.h"

namespace met {

// ---------------------------------------------------------------------------
// Dynamic stages
// ---------------------------------------------------------------------------

/// Shared shim for iterator-style trees (BTree, SkipList).
template <typename Tree, typename Key>
class IteratorDynStage {
 public:
  using Value = uint64_t;

  bool Insert(const Key& k, Value v) { return tree_.Insert(k, v); }
  void InsertOrAssign(const Key& k, Value v) { tree_.InsertOrAssign(k, v); }
  bool Lookup(const Key& k, Value* v) const { return tree_.Lookup(k, v); }
  bool Update(const Key& k, Value v) { return tree_.Update(k, v); }
  bool Erase(const Key& k) { return tree_.Erase(k); }
  size_t size() const { return tree_.size(); }
  size_t MemoryBytes() const { return tree_.MemoryBytes(); }
  MemoryBreakdown Breakdown() const { return tree_.Breakdown(); }
  void Clear() { tree_.Clear(); }

  size_t ScanPairs(const Key& key, size_t n,
                   std::vector<std::pair<Key, Value>>* out) const {
    size_t cnt = 0;
    for (auto it = tree_.LowerBound(key); it.Valid() && cnt < n;
         it.Next(), ++cnt)
      out->emplace_back(it.key(), it.value());
    return cnt;
  }

  Tree& tree() { return tree_; }

 private:
  Tree tree_;
};

template <typename Key>
using DynBTreeStage = IteratorDynStage<BTree<Key>, Key>;

template <typename Key>
class DynSkipListStage : public IteratorDynStage<SkipList<Key>, Key> {};

/// Shared shim for string-keyed trie trees (Art, Masstree).
template <typename Tree>
class TrieDynStage {
 public:
  using Value = uint64_t;

  bool Insert(const std::string& k, Value v) { return tree_.Insert(k, v); }
  void InsertOrAssign(const std::string& k, Value v) {
    tree_.InsertOrAssign(k, v);
  }
  bool Lookup(const std::string& k, Value* v) const { return tree_.Lookup(k, v); }
  bool Update(const std::string& k, Value v) { return tree_.Update(k, v); }
  bool Erase(const std::string& k) { return tree_.Erase(k); }
  size_t size() const { return tree_.size(); }
  size_t MemoryBytes() const { return tree_.MemoryBytes(); }
  MemoryBreakdown Breakdown() const { return tree_.Breakdown(); }
  void Clear() { tree_.Clear(); }

  size_t ScanPairs(const std::string& key, size_t n,
                   std::vector<std::pair<std::string, Value>>* out) const {
    std::vector<Value> vals;
    std::vector<std::string> keys;
    tree_.Scan(key, n, &vals, &keys);
    for (size_t i = 0; i < vals.size(); ++i)
      out->emplace_back(std::move(keys[i]), vals[i]);
    return vals.size();
  }

  Tree& tree() { return tree_; }

 private:
  Tree tree_;
};

using DynArtStage = TrieDynStage<Art>;
using DynMasstreeStage = TrieDynStage<Masstree>;

// ---------------------------------------------------------------------------
// Static stages
// ---------------------------------------------------------------------------

/// CompactBTree / CompactSkipList / CompressedBTree already expose the full
/// static-stage interface (Lookup / size / MemoryBytes / Build / ScanPairs),
/// so they are used directly.
template <typename Key>
using StatCompactBTreeStage = CompactBTree<Key>;

template <typename Key>
using StatCompactSkipListStage = CompactSkipList<Key>;

template <typename Key>
using StatCompressedBTreeStage = CompressedBTree<Key>;

/// Static-stage shim for the compact trie structures.
template <typename Tree>
class TrieStatStage {
 public:
  using Value = uint64_t;
  using Entry = MergeEntry<std::string, Value>;

  bool Lookup(const std::string& k, Value* v) const { return tree_.Lookup(k, v); }
  size_t size() const { return tree_.size(); }
  size_t MemoryBytes() const { return tree_.MemoryBytes(); }
  MemoryBreakdown Breakdown() const { return tree_.Breakdown(); }

  size_t ScanPairs(const std::string& key, size_t n,
                   std::vector<std::pair<std::string, Value>>* out) const {
    std::vector<Value> vals;
    std::vector<std::string> keys;
    tree_.Scan(key, n, &vals, &keys);
    for (size_t i = 0; i < vals.size(); ++i)
      out->emplace_back(std::move(keys[i]), vals[i]);
    return vals.size();
  }

  /// Builds from sorted, unique, live entries.
  void Build(std::vector<Entry>&& entries) {
    std::vector<std::string> keys;
    std::vector<Value> values;
    keys.reserve(entries.size());
    values.reserve(entries.size());
    for (auto& e : entries) {
      keys.push_back(std::move(e.key));
      values.push_back(e.value);
    }
    tree_.Build(keys, values);
  }

  Tree& tree() { return tree_; }

 private:
  Tree tree_;
};

using StatCompactArtStage = TrieStatStage<CompactArt>;
using StatCompactMasstreeStage = TrieStatStage<CompactMasstree>;

}  // namespace met

#endif  // MET_HYBRID_ADAPTERS_H_
