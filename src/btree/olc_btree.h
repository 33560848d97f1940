// Concurrent B+tree synchronized with optimistic lock coupling (common/olc.h;
// Leis et al., DaMoN'16). Readers descend lock-free, validating each node's
// version after reading from it and restarting from the root on conflict;
// writers descend the same way and take per-node write locks only at the
// node(s) they mutate. Splits are *eager*: a writer that passes a full node
// splits it (locking parent then child) and restarts, so a child split never
// has to propagate upward through unlocked ancestors.
//
// Structural choices that keep the concurrent paths simple:
//   - Nodes are never freed or merged while the tree is live: underflowing
//     leaves simply stay (the hybrid index drains the dynamic stage into the
//     static stage long before slack matters), so no epoch reclamation is
//     needed here — a traversal can never reach freed memory.
//   - Leaves are chained (B-link style next pointers) for ordered scans;
//     the chain only ever gains nodes, in place.
//   - All optimistically-read payload fields (counts, keys, children,
//     values) are std::atomic accessed relaxed/acquire; the version word
//     (sync::Atomic) carries the synchronization and the model-checker
//     yield points.
//
// Every mutation runs a bounded restart loop (olc::RestartBudget) and
// reports MutateOutcome::kRetry on exhaustion instead of spinning — see
// common/olc.h for why unbounded restart loops are banned.
#ifndef MET_BTREE_OLC_BTREE_H_
#define MET_BTREE_OLC_BTREE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/index_api.h"
#include "common/olc.h"
#include "prof/memory_breakdown.h"

namespace met {

template <typename KeyT, size_t NodeBytes = 512>
class OlcBTree {
 public:
  using Key = KeyT;
  using Value = uint64_t;
  static_assert(std::is_trivially_copyable_v<Key>,
                "OlcBTree keys live in std::atomic slots");

  explicit OlcBTree(int restart_budget = olc::kDefaultRestartBudget)
      : restart_budget_(restart_budget) {
    root_.store(NewLeaf(), std::memory_order_release);
  }
  ~OlcBTree() { Destroy(root_.load(std::memory_order_acquire)); }

  OlcBTree(const OlcBTree&) = delete;
  OlcBTree& operator=(const OlcBTree&) = delete;

  // --- native outcome-returning operations ---

  /// Inserts or overwrites; kInserted when the key was absent, kUpdated when
  /// it was present (old value in *prev).
  MutateOutcome Upsert(const Key& key, Value value, Value* prev = nullptr) {
    olc::RestartBudget budget(restart_budget_);
    while (budget.Next()) {
      bool restart = false;
      LeafNode* leaf = DescendToLockedLeaf(key, restart);
      if (restart) continue;
      uint16_t c = leaf->count.load(std::memory_order_relaxed);
      int pos = LeafPos(leaf, key, c);
      if (FoundAt(leaf, key, pos, c)) {
        Value old = leaf->values[pos].load(std::memory_order_relaxed);
        leaf->values[pos].store(value, std::memory_order_relaxed);
        leaf->lock.WriteUnlock();
        if (prev != nullptr) *prev = old;
        return MutateOutcome::kUpdated;
      }
      LeafInsertAt(leaf, pos, key, value, c);
      leaf->lock.WriteUnlock();
      size_.fetch_add(1, std::memory_order_relaxed);
      return MutateOutcome::kInserted;
    }
    return MutateOutcome::kRetry;
  }

  /// Unique insert: kExists (tree unchanged) when the key is present.
  MutateOutcome InsertUnique(const Key& key, Value value) {
    olc::RestartBudget budget(restart_budget_);
    while (budget.Next()) {
      bool restart = false;
      LeafNode* leaf = DescendToLockedLeaf(key, restart);
      if (restart) continue;
      uint16_t c = leaf->count.load(std::memory_order_relaxed);
      int pos = LeafPos(leaf, key, c);
      if (FoundAt(leaf, key, pos, c)) {
        leaf->lock.WriteUnlock();
        return MutateOutcome::kExists;
      }
      LeafInsertAt(leaf, pos, key, value, c);
      leaf->lock.WriteUnlock();
      size_.fetch_add(1, std::memory_order_relaxed);
      return MutateOutcome::kInserted;
    }
    return MutateOutcome::kRetry;
  }

  /// Overwrites an existing key's value; kNotFound if absent.
  MutateOutcome UpdateIfPresent(const Key& key, Value value,
                                Value* prev = nullptr) {
    olc::RestartBudget budget(restart_budget_);
    while (budget.Next()) {
      bool restart = false;
      LeafNode* leaf = DescendToLockedLeaf(key, restart);
      if (restart) continue;
      uint16_t c = leaf->count.load(std::memory_order_relaxed);
      int pos = LeafPos(leaf, key, c);
      if (!FoundAt(leaf, key, pos, c)) {
        leaf->lock.WriteUnlock();
        return MutateOutcome::kNotFound;
      }
      Value old = leaf->values[pos].load(std::memory_order_relaxed);
      leaf->values[pos].store(value, std::memory_order_relaxed);
      leaf->lock.WriteUnlock();
      if (prev != nullptr) *prev = old;
      return MutateOutcome::kUpdated;
    }
    return MutateOutcome::kRetry;
  }

  /// Removes a key; kNotFound if absent. Leaves are never merged or freed.
  MutateOutcome Remove(const Key& key, Value* prev = nullptr) {
    olc::RestartBudget budget(restart_budget_);
    while (budget.Next()) {
      bool restart = false;
      LeafNode* leaf = DescendToLockedLeaf(key, restart);
      if (restart) continue;
      uint16_t c = leaf->count.load(std::memory_order_relaxed);
      int pos = LeafPos(leaf, key, c);
      if (!FoundAt(leaf, key, pos, c)) {
        leaf->lock.WriteUnlock();
        return MutateOutcome::kNotFound;
      }
      Value old = leaf->values[pos].load(std::memory_order_relaxed);
      for (int i = pos; i + 1 < c; ++i) {
        leaf->keys[i].store(leaf->keys[i + 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        leaf->values[i].store(
            leaf->values[i + 1].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
      leaf->count.store(static_cast<uint16_t>(c - 1),
                        std::memory_order_relaxed);
      leaf->lock.WriteUnlock();
      size_.fetch_sub(1, std::memory_order_relaxed);
      if (prev != nullptr) *prev = old;
      return MutateOutcome::kRemoved;
    }
    return MutateOutcome::kRetry;
  }

  // --- reads ---

  /// Unified point lookup. Readers always make progress in finitely many
  /// retries outside of sustained writer interference, so this loops without
  /// a budget; TryLookup is the budgeted flavor for bounded explorations.
  bool Lookup(const Key& key, Value* value = nullptr) const {
    for (;;) {
      bool restart = false;
      std::optional<bool> r = LookupAttempt(key, value, restart);
      if (!restart) return *r;
    }
  }

  /// Budget-bounded lookup: nullopt when the restart budget was exhausted.
  std::optional<bool> TryLookup(const Key& key, Value* value = nullptr) const {
    olc::RestartBudget budget(restart_budget_);
    while (budget.Next()) {
      bool restart = false;
      std::optional<bool> r = LookupAttempt(key, value, restart);
      if (!restart) return r;
    }
    return std::nullopt;
  }

  /// Collects up to `n` (key, value) pairs from lower_bound(from) in key
  /// order, appending to *out. Committed per validated leaf: a concurrent
  /// writer can make the snapshot fuzzy across leaves but never within one.
  size_t ScanPairs(const Key& from, size_t n,
                   std::vector<std::pair<Key, Value>>* out) const {
    size_t added = 0;
    Key cursor = from;
    bool have_last = false;
    Key last{};
    while (added < n) {
      bool restart = false;
      LeafNode* leaf = nullptr;
      uint64_t v = 0;
      DescendToLeafRead(cursor, &leaf, &v, restart);
      if (restart) continue;
      bool chain_broken = false;
      while (leaf != nullptr && added < n) {
        std::pair<Key, Value> batch[kLeafSlots];
        int got = 0;
        uint16_t c = leaf->count.load(std::memory_order_relaxed);
        if (c > kLeafSlots) c = kLeafSlots;  // torn read; validation catches
        for (uint16_t i = 0; i < c; ++i) {
          Key k = leaf->keys[i].load(std::memory_order_relaxed);
          bool wanted = have_last ? (last < k) : !(k < cursor);
          if (wanted)
            batch[got++] = {k, leaf->values[i].load(std::memory_order_relaxed)};
        }
        LeafNode* next = leaf->next.load(std::memory_order_acquire);
        restart = false;
        leaf->lock.ReadUnlockOrRestart(v, restart);
        if (restart) {
          chain_broken = true;
          break;
        }
        for (int i = 0; i < got && added < n; ++i) {
          if (out != nullptr) out->push_back(batch[i]);
          last = batch[i].first;
          have_last = true;
          ++added;
        }
        if (added >= n) return added;
        leaf = next;
        if (leaf != nullptr) {
          v = leaf->lock.ReadLockOrRestart(restart);
          if (restart) {
            chain_broken = true;
            break;
          }
        }
      }
      if (!chain_broken) break;  // reached the end of the chain
      if (have_last) cursor = last;
    }
    return added;
  }

  /// met::RangeIndex scan surface (values only).
  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    std::vector<std::pair<Key, Value>> pairs;
    size_t got = ScanPairs(key, n, &pairs);
    if (out != nullptr)
      for (const auto& [k, v] : pairs) out->push_back(v);
    return got;
  }

  // --- legacy bool surface (met::PointIndex); retries internally ---

  /// Unique insert; false (tree unchanged) if the key exists.
  bool Insert(const Key& key, Value value) {
    return LoopUntilSettled([&] { return InsertUnique(key, value); }) ==
           MutateOutcome::kInserted;
  }

  void InsertOrAssign(const Key& key, Value value) {
    LoopUntilSettled([&] { return Upsert(key, value); });
  }

  /// Overwrites an existing key's value; false if absent.
  bool Update(const Key& key, Value value) {
    return LoopUntilSettled([&] { return UpdateIfPresent(key, value); }) ==
           MutateOutcome::kUpdated;
  }

  /// Removes a key; false if absent.
  bool Erase(const Key& key) {
    return LoopUntilSettled([&] { return Remove(key); }) ==
           MutateOutcome::kRemoved;
  }

  // --- stats / maintenance ---

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  size_t MemoryBytes() const {
    return inner_nodes_.load(std::memory_order_relaxed) * sizeof(Inner) +
           leaf_nodes_.load(std::memory_order_relaxed) * sizeof(LeafNode);
  }

  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("olc_btree");
    b.Add("inner", inner_nodes_.load(std::memory_order_relaxed) * sizeof(Inner));
    b.Add("leaves",
          leaf_nodes_.load(std::memory_order_relaxed) * sizeof(LeafNode));
    return b;
  }

  /// Not thread-safe: callers must quiesce all other threads first.
  void Clear() {
    Destroy(root_.load(std::memory_order_acquire));
    inner_nodes_.store(0, std::memory_order_relaxed);
    leaf_nodes_.store(0, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    root_.store(NewLeaf(), std::memory_order_release);
  }

  /// Structural invariants (quiescent callers only): per-node sort order,
  /// separator bounds, leaf-chain order, version words unlocked, size match.
  bool Validate(std::ostream& os) const {
    Node* root = root_.load(std::memory_order_acquire);
    size_t leaves_seen = 0;
    bool have_prev = false;
    Key prev{};
    LeafNode* first_leaf = nullptr;
    if (!ValidateNode(root, nullptr, nullptr, os, &leaves_seen, &have_prev,
                      &prev, &first_leaf))
      return false;
    if (leaves_seen != size()) {
      os << "olc_btree: leaf entries " << leaves_seen << " != size() "
         << size() << "\n";
      return false;
    }
    // The leaf chain must enumerate the same keys in the same order.
    size_t chained = 0;
    for (LeafNode* l = first_leaf; l != nullptr;
         l = l->next.load(std::memory_order_acquire))
      chained += l->count.load(std::memory_order_relaxed);
    if (chained != leaves_seen) {
      os << "olc_btree: leaf chain enumerates " << chained
         << " entries, tree has " << leaves_seen << "\n";
      return false;
    }
    return true;
  }

 private:
  static constexpr size_t kHeaderBytes = 64;  // lock + count + type + padding
  static constexpr size_t kEntryBytes = sizeof(Key) + sizeof(Value);
  static constexpr size_t kLeafSlots = std::max<size_t>(
      4, (NodeBytes > kHeaderBytes ? NodeBytes - kHeaderBytes : 0) /
             kEntryBytes);
  static constexpr size_t kInnerSlots = std::max<size_t>(4, kLeafSlots - 1);
  static_assert(kLeafSlots < 65535 && kInnerSlots < 65535);

  struct Node {
    olc::VersionLock lock;
    std::atomic<uint16_t> count{0};
    const bool leaf;
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
  };

  struct Inner : Node {
    std::atomic<Key> keys[kInnerSlots];
    std::atomic<Node*> children[kInnerSlots + 1] = {};
    Inner() : Node(false) {}
  };

  struct LeafNode : Node {
    std::atomic<Key> keys[kLeafSlots];
    std::atomic<Value> values[kLeafSlots];
    std::atomic<LeafNode*> next{nullptr};
    LeafNode() : Node(true) {}
  };

  LeafNode* NewLeaf() {
    leaf_nodes_.fetch_add(1, std::memory_order_relaxed);
    return new LeafNode();
  }
  Inner* NewInner() {
    inner_nodes_.fetch_add(1, std::memory_order_relaxed);
    return new Inner();
  }

  void Destroy(Node* n) {
    if (n == nullptr) return;
    if (n->leaf) {
      delete static_cast<LeafNode*>(n);
      return;
    }
    Inner* in = static_cast<Inner*>(n);
    uint16_t c = in->count.load(std::memory_order_relaxed);
    for (uint16_t i = 0; i <= c; ++i)
      Destroy(in->children[i].load(std::memory_order_relaxed));
    delete in;
  }

  /// First i in [0, c) with key < keys[i]; c if none. children[i] holds keys
  /// strictly below keys[i]; keys[i] is the minimum of children[i+1].
  static int ChildIndex(const Inner* in, const Key& key, uint16_t c) {
    int i = 0;
    while (i < c && !(key < in->keys[i].load(std::memory_order_relaxed))) ++i;
    return i;
  }

  /// First i in [0, c) with keys[i] >= key (lower bound).
  static int LeafPos(const LeafNode* leaf, const Key& key, uint16_t c) {
    int i = 0;
    while (i < c && leaf->keys[i].load(std::memory_order_relaxed) < key) ++i;
    return i;
  }

  static bool FoundAt(const LeafNode* leaf, const Key& key, int pos,
                      uint16_t c) {
    return pos < c &&
           !(key < leaf->keys[pos].load(std::memory_order_relaxed));
  }

  static void LeafInsertAt(LeafNode* leaf, int pos, const Key& key,
                           Value value, uint16_t c) {
    MET_DCHECK(c < kLeafSlots);
    for (int i = c; i > pos; --i) {
      leaf->keys[i].store(leaf->keys[i - 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      leaf->values[i].store(
          leaf->values[i - 1].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    leaf->keys[pos].store(key, std::memory_order_relaxed);
    leaf->values[pos].store(value, std::memory_order_relaxed);
    leaf->count.store(static_cast<uint16_t>(c + 1), std::memory_order_relaxed);
  }

  /// Inserts (sep, right) into a write-locked, non-full inner node.
  static void InnerInsertAt(Inner* in, const Key& sep, Node* right) {
    uint16_t c = in->count.load(std::memory_order_relaxed);
    MET_DCHECK(c < kInnerSlots);
    int pos = ChildIndex(in, sep, c);
    for (int i = c; i > pos; --i)
      in->keys[i].store(in->keys[i - 1].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    for (int i = c + 1; i > pos + 1; --i)
      in->children[i].store(
          in->children[i - 1].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    in->keys[pos].store(sep, std::memory_order_relaxed);
    in->children[pos + 1].store(right, std::memory_order_release);
    in->count.store(static_cast<uint16_t>(c + 1), std::memory_order_relaxed);
  }

  /// Installs a new root above a just-split old root. Caller holds the old
  /// root's write lock, so concurrent descents either still see the old root
  /// (and fail validation against its bumped version) or see the new one.
  void PromoteRoot(Node* left, const Key& sep, Node* right) {
    Inner* nr = NewInner();
    nr->keys[0].store(sep, std::memory_order_relaxed);
    nr->children[0].store(left, std::memory_order_relaxed);
    nr->children[1].store(right, std::memory_order_relaxed);
    nr->count.store(1, std::memory_order_relaxed);
    root_.store(nr, std::memory_order_release);
  }

  /// Splits a write-locked full inner node; `parent` (if any) is also
  /// write-locked and guaranteed non-full by the eager-split descent.
  void SplitInner(Inner* in, Inner* parent) {
    uint16_t c = in->count.load(std::memory_order_relaxed);
    uint16_t m = c / 2;
    Key sep = in->keys[m].load(std::memory_order_relaxed);
    Inner* right = NewInner();
    uint16_t rc = static_cast<uint16_t>(c - m - 1);
    for (uint16_t i = 0; i < rc; ++i)
      right->keys[i].store(in->keys[m + 1 + i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    for (uint16_t i = 0; i <= rc; ++i)
      right->children[i].store(
          in->children[m + 1 + i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    right->count.store(rc, std::memory_order_relaxed);
    in->count.store(m, std::memory_order_relaxed);
    if (parent != nullptr)
      InnerInsertAt(parent, sep, right);
    else
      PromoteRoot(in, sep, right);
  }

  /// Splits a write-locked full leaf, linking the new right leaf into the
  /// chain; same parent contract as SplitInner.
  void SplitLeaf(LeafNode* leaf, Inner* parent) {
    uint16_t c = leaf->count.load(std::memory_order_relaxed);
    uint16_t m = c / 2;
    LeafNode* right = NewLeaf();
    uint16_t rc = static_cast<uint16_t>(c - m);
    for (uint16_t i = 0; i < rc; ++i) {
      right->keys[i].store(leaf->keys[m + i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
      right->values[i].store(
          leaf->values[m + i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    right->count.store(rc, std::memory_order_relaxed);
    right->next.store(leaf->next.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    leaf->count.store(m, std::memory_order_relaxed);
    leaf->next.store(right, std::memory_order_release);
    Key sep = right->keys[0].load(std::memory_order_relaxed);
    if (parent != nullptr)
      InnerInsertAt(parent, sep, right);
    else
      PromoteRoot(leaf, sep, right);
  }

  /// Write-locks parent (if any) then the full node, splits it, unlocks, and
  /// always requests a restart: the split may have moved the key's route.
  template <typename NodeT>
  void SplitAndRestart(NodeT* node, uint64_t v, Inner* parent, uint64_t pv,
                       bool& restart) {
    if (parent != nullptr) {
      parent->lock.UpgradeToWriteLockOrRestart(pv, restart);
      if (restart) return;
    }
    node->lock.UpgradeToWriteLockOrRestart(v, restart);
    if (restart) {
      if (parent != nullptr) parent->lock.WriteUnlock();
      return;
    }
    // A parentless node must still be the root (another thread may have
    // promoted a new root above it since our descent began).
    if (parent == nullptr &&
        static_cast<Node*>(node) != root_.load(std::memory_order_acquire)) {
      node->lock.WriteUnlock();
      restart = true;
      return;
    }
    if constexpr (std::is_same_v<NodeT, Inner>)
      SplitInner(node, parent);
    else
      SplitLeaf(node, parent);
    node->lock.WriteUnlock();
    if (parent != nullptr) parent->lock.WriteUnlock();
    restart = true;
  }

  /// One optimistic descent to the leaf owning `key`, returning it
  /// write-locked; splits full nodes on the way (then restarts). On any
  /// conflict sets `restart` and returns nullptr.
  LeafNode* DescendToLockedLeaf(const Key& key, bool& restart) {
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->lock.ReadLockOrRestart(restart);
    if (restart) return nullptr;
    if (node != root_.load(std::memory_order_acquire)) {
      restart = true;
      return nullptr;
    }
    Inner* parent = nullptr;
    uint64_t pv = 0;
    while (!node->leaf) {
      Inner* in = static_cast<Inner*>(node);
      if (in->count.load(std::memory_order_relaxed) == kInnerSlots) {
        SplitAndRestart(in, v, parent, pv, restart);
        MET_DCHECK(restart);
        return nullptr;
      }
      uint16_t c = in->count.load(std::memory_order_relaxed);
      int pos = ChildIndex(in, key, c);
      Node* next = in->children[pos].load(std::memory_order_acquire);
      in->lock.CheckOrRestart(v, restart);
      if (restart) return nullptr;
      if (next == nullptr) {
        restart = true;
        return nullptr;
      }
      uint64_t nv = next->lock.ReadLockOrRestart(restart);
      if (restart) return nullptr;
      in->lock.ReadUnlockOrRestart(v, restart);
      if (restart) return nullptr;
      parent = in;
      pv = v;
      node = next;
      v = nv;
    }
    LeafNode* leaf = static_cast<LeafNode*>(node);
    if (leaf->count.load(std::memory_order_relaxed) == kLeafSlots) {
      SplitAndRestart(leaf, v, parent, pv, restart);
      MET_DCHECK(restart);
      return nullptr;
    }
    leaf->lock.UpgradeToWriteLockOrRestart(v, restart);
    if (restart) return nullptr;
    return leaf;
  }

  /// Read-only descent: leaves *leaf read-locked at version *v (still to be
  /// validated by the caller after it reads the leaf).
  void DescendToLeafRead(const Key& key, LeafNode** leaf, uint64_t* v,
                         bool& restart) const {
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t ver = node->lock.ReadLockOrRestart(restart);
    if (restart) return;
    if (node != root_.load(std::memory_order_acquire)) {
      restart = true;
      return;
    }
    while (!node->leaf) {
      const Inner* in = static_cast<const Inner*>(node);
      uint16_t c = in->count.load(std::memory_order_relaxed);
      int pos = ChildIndex(in, key, c);
      Node* next = in->children[pos].load(std::memory_order_acquire);
      in->lock.CheckOrRestart(ver, restart);
      if (restart) return;
      if (next == nullptr) {
        restart = true;
        return;
      }
      uint64_t nv = next->lock.ReadLockOrRestart(restart);
      if (restart) return;
      in->lock.ReadUnlockOrRestart(ver, restart);
      if (restart) return;
      node = next;
      ver = nv;
    }
    *leaf = static_cast<LeafNode*>(node);
    *v = ver;
  }

  std::optional<bool> LookupAttempt(const Key& key, Value* value,
                                    bool& restart) const {
    LeafNode* leaf = nullptr;
    uint64_t v = 0;
    DescendToLeafRead(key, &leaf, &v, restart);
    if (restart) return std::nullopt;
    uint16_t c = leaf->count.load(std::memory_order_relaxed);
    if (c > kLeafSlots) c = kLeafSlots;  // torn read; validation catches
    int pos = LeafPos(leaf, key, c);
    bool found = FoundAt(leaf, key, pos, c);
    Value out = found ? leaf->values[pos].load(std::memory_order_relaxed) : 0;
    leaf->lock.ReadUnlockOrRestart(v, restart);
    if (restart) return std::nullopt;
    if (found && value != nullptr) *value = out;
    return found;
  }

  template <typename Op>
  MutateOutcome LoopUntilSettled(Op op) {
    for (;;) {
      MutateOutcome o = op();
      if (o != MutateOutcome::kRetry) return o;
    }
  }

  bool ValidateNode(Node* n, const Key* lo, const Key* hi, std::ostream& os,
                    size_t* leaves_seen, bool* have_prev, Key* prev,
                    LeafNode** first_leaf) const {
    uint64_t w = n->lock.Peek();
    if (olc::VersionLock::IsLocked(w) || olc::VersionLock::IsObsolete(w)) {
      os << "olc_btree: node version locked/obsolete at quiescence\n";
      return false;
    }
    uint16_t c = n->count.load(std::memory_order_relaxed);
    if (n->leaf) {
      LeafNode* leaf = static_cast<LeafNode*>(n);
      if (c > kLeafSlots) {
        os << "olc_btree: leaf count " << c << " > " << kLeafSlots << "\n";
        return false;
      }
      if (*first_leaf == nullptr) *first_leaf = leaf;
      for (uint16_t i = 0; i < c; ++i) {
        Key k = leaf->keys[i].load(std::memory_order_relaxed);
        if ((lo != nullptr && k < *lo) || (hi != nullptr && !(k < *hi))) {
          os << "olc_btree: leaf key outside separator bounds\n";
          return false;
        }
        if (*have_prev && !(*prev < k)) {
          os << "olc_btree: keys not strictly increasing\n";
          return false;
        }
        *prev = k;
        *have_prev = true;
      }
      *leaves_seen += c;
      return true;
    }
    Inner* in = static_cast<Inner*>(n);
    if (c == 0 || c > kInnerSlots) {
      os << "olc_btree: inner count " << c << " out of range\n";
      return false;
    }
    for (uint16_t i = 0; i + 1 < c; ++i) {
      if (!(in->keys[i].load(std::memory_order_relaxed) <
            in->keys[i + 1].load(std::memory_order_relaxed))) {
        os << "olc_btree: inner separators not strictly increasing\n";
        return false;
      }
    }
    for (uint16_t i = 0; i <= c; ++i) {
      Node* child = in->children[i].load(std::memory_order_relaxed);
      if (child == nullptr) {
        os << "olc_btree: null child pointer\n";
        return false;
      }
      Key lo_k{};
      Key hi_k{};
      const Key* clo = lo;
      const Key* chi = hi;
      if (i > 0) {
        lo_k = in->keys[i - 1].load(std::memory_order_relaxed);
        clo = &lo_k;
      }
      if (i < c) {
        hi_k = in->keys[i].load(std::memory_order_relaxed);
        chi = &hi_k;
      }
      if (!ValidateNode(child, clo, chi, os, leaves_seen, have_prev, prev,
                        first_leaf))
        return false;
    }
    return true;
  }

  std::atomic<Node*> root_{nullptr};
  std::atomic<size_t> size_{0};
  std::atomic<size_t> inner_nodes_{0};
  std::atomic<size_t> leaf_nodes_{0};
  const int restart_budget_;
};

}  // namespace met

#endif  // MET_BTREE_OLC_BTREE_H_
