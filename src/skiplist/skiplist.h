// Paged skip list in the spirit of the paged-deterministic skip list the
// thesis uses (Section 2.1): entries live in B+tree-like pages at the bottom
// level; each page owns a tower of forward pointers whose height is drawn
// from a deterministic (seeded) geometric distribution, so searches descend
// a skip-list index but land on packed pages.
#ifndef MET_SKIPLIST_SKIPLIST_H_
#define MET_SKIPLIST_SKIPLIST_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "btree/btree.h"  // for btree_internal::KeyHeapBytes
#include "check/fwd.h"
#include "common/assert.h"
#include "common/random.h"
#include "prof/memory_breakdown.h"

namespace met {

template <typename Key, typename Value = uint64_t, int PageSlots = 30>
class SkipList {
 private:
  struct Page;
  struct Tower;

 public:
  static constexpr int kMaxHeight = 16;

  SkipList() : rng_(0x5ca1ab1e) {
    // The head tower acts as the sentinel owner of the first page (an
    // implicit minus-infinity separator), so no tower key can become a
    // stale upper bound when smaller keys arrive later.
    head_ = NewTower(Key{}, nullptr, kMaxHeight);
  }

  ~SkipList() {
    Tower* t = head_;
    while (t != nullptr) {
      Tower* next = t->next[0];
      delete t->page;
      FreeTower(t);
      t = next;
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  bool Insert(const Key& key, const Value& value) {
    return InsertImpl(key, value, /*overwrite=*/false);
  }

  void InsertOrAssign(const Key& key, const Value& value) {
    InsertImpl(key, value, /*overwrite=*/true);
  }

  /// Unified point lookup (met::RangeIndex surface).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    const Page* page = FindPage(key);
    if (page == nullptr) return false;
    int slot = FindLower(page, key);
    if (slot >= page->count || page->keys[slot] != key) return false;
    if (value != nullptr) *value = page->values[slot];
    return true;
  }

  bool Update(const Key& key, const Value& value) {
    Page* page = const_cast<Page*>(FindPage(key));
    if (page == nullptr) return false;
    int slot = FindLower(page, key);
    if (slot >= page->count || page->keys[slot] != key) return false;
    page->values[slot] = value;
    return true;
  }

  bool Erase(const Key& key) {
    Page* page = const_cast<Page*>(FindPage(key));
    if (page == nullptr) return false;
    int slot = FindLower(page, key);
    if (slot >= page->count || page->keys[slot] != key) return false;
    for (int i = slot; i + 1 < page->count; ++i) {
      page->keys[i] = std::move(page->keys[i + 1]);
      page->values[i] = page->values[i + 1];
    }
    --page->count;
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    Tower* t = head_->next[0];
    while (t != nullptr) {
      Tower* next = t->next[0];
      delete t->page;
      FreeTower(t);
      t = next;
    }
    delete head_->page;
    head_->page = nullptr;
    for (int i = 0; i < kMaxHeight; ++i) head_->next[i] = nullptr;
    size_ = 0;
  }

  class Iterator {
   public:
    Iterator() = default;
    Iterator(const void* page, int slot)
        : page_(static_cast<const Page*>(page)), slot_(slot) {
      SkipEmpty();
    }

    bool Valid() const { return page_ != nullptr && slot_ < page_->count; }
    const Key& key() const { return page_->keys[slot_]; }
    const Value& value() const { return page_->values[slot_]; }

    void Next() {
      if (!Valid()) return;
      ++slot_;
      SkipEmpty();
    }

   private:
    void SkipEmpty() {
      while (page_ != nullptr && slot_ >= page_->count) {
        page_ = page_->next;
        slot_ = 0;
      }
    }

    const Page* page_ = nullptr;
    int slot_ = 0;
  };

  Iterator Begin() const { return Iterator(head_->page, 0); }

  Iterator LowerBound(const Key& key) const {
    const Page* page = FindPage(key);
    if (page == nullptr) return Iterator(head_->page, 0);
    int slot = FindLower(page, key);
    return Iterator(page, slot);
  }

  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    size_t cnt = 0;
    for (Iterator it = LowerBound(key); it.Valid() && cnt < n; it.Next(), ++cnt)
      if (out != nullptr) out->push_back(it.value());
    return cnt;
  }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const Tower* t = head_; t != nullptr; t = t->next[0]) {
      bytes += sizeof(Tower) + (t->height - 1) * sizeof(Tower*);
      if (t->page != nullptr) {
        bytes += sizeof(Page);
        for (int i = 0; i < t->page->count; ++i)
          bytes += btree_internal::KeyHeapBytes(t->page->keys[i]);
      }
    }
    return bytes;
  }

  /// Component attribution; TotalBytes() == MemoryBytes() (same walk).
  MemoryBreakdown Breakdown() const {
    size_t tower_bytes = 0, page_bytes = 0, key_heap = 0;
    for (const Tower* t = head_; t != nullptr; t = t->next[0]) {
      tower_bytes += sizeof(Tower) + (t->height - 1) * sizeof(Tower*);
      if (t->page != nullptr) {
        page_bytes += sizeof(Page);
        for (int i = 0; i < t->page->count; ++i)
          key_heap += btree_internal::KeyHeapBytes(t->page->keys[i]);
      }
    }
    MemoryBreakdown b("skiplist");
    b.Add("towers", tower_bytes);
    b.Add("pages", page_bytes);
    b.Add("key_heap", key_heap);
    return b;
  }

  /// Verifies tower ordering per level, level monotonicity, page-chain
  /// linkage, and counts. No-op unless MET_CHECK_ENABLED; see
  /// check/skiplist_check.h.
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return ValidateImpl(os);
#else
    (void)os;
    return true;
#endif
  }

  double PageOccupancy() const {
    size_t slots = 0, used = 0;
    for (const Page* p = head_->page; p != nullptr; p = p->next) {
      slots += PageSlots;
      used += p->count;
    }
    return slots == 0 ? 0.0 : static_cast<double>(used) / slots;
  }

 private:
  struct Page {
    int16_t count = 0;
    Page* next = nullptr;
    Key keys[PageSlots];
    Value values[PageSlots];
  };

  // Variable-height skip node; next[] is over-allocated to `height` entries.
  struct Tower {
    Key key;  // first key of `page` at creation time (a valid separator)
    Page* page;
    int height;
    Tower* next[1];  // actually `height` entries
  };

  Tower* NewTower(const Key& key, Page* page, int height) {
    void* mem = ::operator new(sizeof(Tower) + (height - 1) * sizeof(Tower*));
    Tower* t = new (mem) Tower{key, page, height, {nullptr}};
    for (int i = 0; i < height; ++i) t->next[i] = nullptr;
    return t;
  }

  void FreeTower(Tower* t) {
    t->~Tower();
    ::operator delete(t);
  }

  int RandomHeight() {
    int h = 1;
    // Promotion probability 1/4 approximates a fanout-4 index over pages.
    while (h < kMaxHeight && rng_.Uniform(4) == 0) ++h;
    return h;
  }

  static int FindLower(const Page* page, const Key& key) {
    return static_cast<int>(
        std::lower_bound(page->keys, page->keys + page->count, key) - page->keys);
  }

  /// The page that may contain `key`: the page of the last tower whose
  /// separator key is <= key (or the first page if key precedes everything).
  const Page* FindPage(const Key& key) const {
    const Tower* t = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      while (t->next[level] != nullptr && t->next[level]->key <= key)
        t = t->next[level];
    }
    return t->page;
  }

  /// Same search but records the rightmost tower visited per level.
  Tower* FindPageTrack(const Key& key, Tower* preds[kMaxHeight]) {
    Tower* t = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      while (t->next[level] != nullptr && t->next[level]->key <= key)
        t = t->next[level];
      preds[level] = t;
    }
    return t;
  }

  bool InsertImpl(const Key& key, const Value& value, bool overwrite) {
    Tower* preds[kMaxHeight];
    Tower* t = FindPageTrack(key, preds);
    Page* page = t->page;

    if (page == nullptr) {  // empty list: attach the first page to the head
      page = new Page();
      page->keys[0] = key;
      page->values[0] = value;
      page->count = 1;
      head_->page = page;
      ++size_;
      return true;
    }

    int slot = FindLower(page, key);
    if (slot < page->count && page->keys[slot] == key) {
      if (overwrite) page->values[slot] = value;
      return false;
    }

    if (page->count == PageSlots) {
      // Split: move the upper half into a new page with its own tower.
      Page* right = new Page();
      int mid = PageSlots / 2;
      right->count = static_cast<int16_t>(PageSlots - mid);
      for (int i = 0; i < right->count; ++i) {
        right->keys[i] = std::move(page->keys[mid + i]);
        right->values[i] = page->values[mid + i];
      }
      page->count = static_cast<int16_t>(mid);
      right->next = page->next;
      page->next = right;

      int h = RandomHeight();
      Tower* nt = NewTower(right->keys[0], right, h);
      for (int i = 0; i < h; ++i) {
        nt->next[i] = preds[i]->next[i];
        preds[i]->next[i] = nt;
      }
      Page* target = (key < right->keys[0]) ? page : right;
      int s = FindLower(target, key);
      for (int i = target->count; i > s; --i) {
        target->keys[i] = std::move(target->keys[i - 1]);
        target->values[i] = target->values[i - 1];
      }
      target->keys[s] = key;
      target->values[s] = value;
      ++target->count;
    } else {
      for (int i = page->count; i > slot; --i) {
        page->keys[i] = std::move(page->keys[i - 1]);
        page->values[i] = page->values[i - 1];
      }
      page->keys[slot] = key;
      page->values[slot] = value;
      ++page->count;
    }
    ++size_;
    return true;
  }

  bool ValidateImpl(std::ostream& os) const;  // check/skiplist_check.h
  friend struct check::TestAccess;

  Tower* head_;
  size_t size_ = 0;
  Random rng_;
};

}  // namespace met

#endif  // MET_SKIPLIST_SKIPLIST_H_
