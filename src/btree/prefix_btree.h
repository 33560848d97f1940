// Prefix B+tree (Bayer & Unterauer '77), the Chapter 6 integration target
// with partial key storage: each static leaf page stores its entries'
// common prefix once plus per-entry suffixes, so it benefits less from HOPE
// than a full-key B+tree but more than a trie (Figure 6.7's spectrum).
#ifndef MET_BTREE_PREFIX_BTREE_H_
#define MET_BTREE_PREFIX_BTREE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "prof/memory_breakdown.h"

namespace met {

template <typename Value = uint64_t, int PageEntries = 64>
class PrefixBTree {
 public:
  /// Builds from sorted, unique string keys.
  void Build(const std::vector<std::string>& keys,
             const std::vector<Value>& values) {
    pages_.clear();
    size_ = keys.size();
    for (size_t i = 0; i < keys.size(); i += PageEntries) {
      size_t n = std::min<size_t>(PageEntries, keys.size() - i);
      Page page;
      page.first_key = keys[i];
      // Common prefix of the page = common prefix of first and last keys.
      const std::string& first = keys[i];
      const std::string& last = keys[i + n - 1];
      size_t cp = 0;
      while (cp < std::min(first.size(), last.size()) && first[cp] == last[cp])
        ++cp;
      page.prefix = first.substr(0, cp);
      page.suffix_off.push_back(0);
      for (size_t j = 0; j < n; ++j) {
        page.suffixes.append(keys[i + j], cp, std::string::npos);
        page.suffix_off.push_back(static_cast<uint32_t>(page.suffixes.size()));
        page.values.push_back(values[i + j]);
      }
      page.suffixes.shrink_to_fit();
      pages_.push_back(std::move(page));
    }
  }

  /// Unified point lookup (met::ReadOnlyPointIndex surface).
  bool Lookup(std::string_view key, Value* value = nullptr) const {
    if (pages_.empty()) return false;
    size_t p = PageFor(key);
    const Page& page = pages_[p];
    if (key.size() < page.prefix.size() ||
        key.substr(0, page.prefix.size()) != page.prefix)
      return false;
    std::string_view suffix = key.substr(page.prefix.size());
    size_t idx = LowerBoundInPage(page, suffix);
    if (idx >= page.values.size() || page.SuffixAt(idx) != suffix) return false;
    if (value != nullptr) *value = page.values[idx];
    return true;
  }

  size_t Scan(std::string_view key, size_t n, std::vector<Value>* out) const {
    if (pages_.empty()) return 0;
    size_t cnt = 0;
    size_t p = PageFor(key);
    // First entry in the page whose full key is >= `key`.
    size_t idx = 0;
    const Page& page = pages_[p];
    std::string_view prefix(page.prefix);
    if (key.size() > prefix.size() && key.substr(0, prefix.size()) == prefix) {
      idx = LowerBoundInPage(page, key.substr(prefix.size()));
    } else if (key > prefix) {
      idx = page.values.size();  // key diverges above every prefixed entry
    }  // else key <= prefix: every entry qualifies
    for (size_t pi = p; pi < pages_.size() && cnt < n; ++pi, idx = 0) {
      const Page& pg = pages_[pi];
      for (size_t j = idx; j < pg.values.size() && cnt < n; ++j, ++cnt)
        if (out != nullptr) out->push_back(pg.values[j]);
    }
    return cnt;
  }

  size_t size() const { return size_; }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& p : pages_) {
      bytes += sizeof(Page) + p.first_key.capacity() + p.prefix.capacity() +
               p.suffixes.capacity() +
               p.suffix_off.capacity() * sizeof(uint32_t) +
               p.values.capacity() * sizeof(Value);
    }
    return bytes;
  }

  /// Component attribution; TotalBytes() == MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const {
    size_t headers = 0, fences = 0, prefixes = 0, suffixes = 0, offsets = 0,
           values = 0;
    for (const auto& p : pages_) {
      headers += sizeof(Page);
      fences += p.first_key.capacity();
      prefixes += p.prefix.capacity();
      suffixes += p.suffixes.capacity();
      offsets += p.suffix_off.capacity() * sizeof(uint32_t);
      values += p.values.capacity() * sizeof(Value);
    }
    MemoryBreakdown b("prefix_btree");
    b.Add("page_headers", headers);
    b.Add("fence_keys", fences);
    b.Add("shared_prefixes", prefixes);
    b.Add("suffix_blobs", suffixes);
    b.Add("suffix_offsets", offsets);
    b.Add("values", values);
    return b;
  }

 private:
  struct Page {
    std::string first_key;  // uncompressed fence key
    std::string prefix;
    std::string suffixes;
    std::vector<uint32_t> suffix_off;
    std::vector<Value> values;

    std::string_view SuffixAt(size_t i) const {
      return std::string_view(suffixes.data() + suffix_off[i],
                              suffix_off[i + 1] - suffix_off[i]);
    }
  };

  size_t PageFor(std::string_view key) const {
    auto it = std::upper_bound(
        pages_.begin(), pages_.end(), key,
        [](std::string_view k, const Page& p) { return k < p.first_key; });
    return it == pages_.begin() ? 0 : (it - pages_.begin()) - 1;
  }

  static size_t LowerBoundInPage(const Page& page, std::string_view suffix) {
    size_t lo = 0, hi = page.values.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (page.SuffixAt(mid) < suffix)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  std::vector<Page> pages_;
  size_t size_ = 0;
};

}  // namespace met

#endif  // MET_BTREE_PREFIX_BTREE_H_
