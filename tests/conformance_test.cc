// Typed conformance suite: every dynamic index type (original trees and
// hybrid indexes) must satisfy the same behavioural contract for Insert /
// Find / Update / Erase / Scan. Catches interface drift across the family.
#include <map>
#include <string>
#include <vector>

#include "art/art.h"
#include "art/compact_art.h"
#include "bloom/bloom.h"
#include "btree/btree.h"
#include "btree/compact_btree.h"
#include "btree/compressed_btree.h"
#include "btree/olc_btree.h"
#include "btree/prefix_btree.h"
#include "common/index_api.h"
#include "fst/fst.h"
#include "hot/hot.h"
#include "common/random.h"
#include "hybrid/hybrid.h"
#include "hybrid/olc_hybrid.h"
#include "keys/keygen.h"
#include "masstree/compact_masstree.h"
#include "masstree/masstree.h"
#include "skiplist/compact_skiplist.h"
#include "skiplist/skiplist.h"
#include "surf/surf.h"
#include "gtest/gtest.h"

namespace met {
namespace {

// ---------- integer-keyed indexes ----------

template <typename Index>
class IntIndexConformanceTest : public ::testing::Test {
 public:
  Index index;
};

using IntIndexTypes =
    ::testing::Types<BTree<uint64_t>, SkipList<uint64_t>, HybridBTree<uint64_t>,
                     HybridSkipList<uint64_t>, HybridCompressedBTree<uint64_t>,
                     OlcBTree<uint64_t>>;
TYPED_TEST_SUITE(IntIndexConformanceTest, IntIndexTypes);

TYPED_TEST(IntIndexConformanceTest, InsertRejectsDuplicates) {
  EXPECT_TRUE(this->index.Insert(7, 70));
  EXPECT_FALSE(this->index.Insert(7, 71));
  uint64_t v = 0;
  EXPECT_TRUE(this->index.Lookup(7, &v));
  EXPECT_EQ(v, 70u);  // the first value wins
}

TYPED_TEST(IntIndexConformanceTest, UpdateOnlyExisting) {
  EXPECT_FALSE(this->index.Update(1, 10));
  this->index.Insert(1, 10);
  EXPECT_TRUE(this->index.Update(1, 20));
  uint64_t v = 0;
  this->index.Lookup(1, &v);
  EXPECT_EQ(v, 20u);
}

TYPED_TEST(IntIndexConformanceTest, EraseSemantics) {
  this->index.Insert(5, 50);
  EXPECT_TRUE(this->index.Erase(5));
  EXPECT_FALSE(this->index.Erase(5));
  EXPECT_FALSE(this->index.Lookup(5));
  EXPECT_TRUE(this->index.Insert(5, 51));  // reinsert after erase
  uint64_t v = 0;
  EXPECT_TRUE(this->index.Lookup(5, &v));
  EXPECT_EQ(v, 51u);
}

TYPED_TEST(IntIndexConformanceTest, ScanIsSortedPrefix) {
  auto keys = GenRandomInts(20000);
  for (size_t i = 0; i < keys.size(); ++i) this->index.Insert(keys[i], keys[i]);
  SortUnique(&keys);
  std::vector<uint64_t> out;
  size_t got = this->index.Scan(0, 500, &out);
  ASSERT_EQ(got, 500u);
  for (size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], keys[i]);
  // Scan from the middle.
  out.clear();
  uint64_t mid = keys[keys.size() / 2];
  this->index.Scan(mid, 100, &out);
  for (size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], keys[keys.size() / 2 + i]);
  // Scan past the end.
  out.clear();
  EXPECT_EQ(this->index.Scan(keys.back() + 1, 10, &out), 0u);
}

TYPED_TEST(IntIndexConformanceTest, SizeTracksOperations) {
  EXPECT_EQ(this->index.size(), 0u);
  for (uint64_t k = 0; k < 100; ++k) this->index.Insert(k, k);
  EXPECT_EQ(this->index.size(), 100u);
  for (uint64_t k = 0; k < 50; ++k) this->index.Erase(k);
  EXPECT_EQ(this->index.size(), 50u);
  this->index.Insert(3, 3);
  EXPECT_EQ(this->index.size(), 51u);
}

TYPED_TEST(IntIndexConformanceTest, RandomOpsMatchStdMap) {
  std::map<uint64_t, uint64_t> ref;
  Random rng(99);
  for (int i = 0; i < 15000; ++i) {
    uint64_t k = rng.Uniform(2000);
    switch (rng.Uniform(4)) {
      case 0:
        ASSERT_EQ(this->index.Insert(k, i), ref.emplace(k, i).second);
        break;
      case 1: {
        bool in_ref = ref.count(k) > 0;
        if (in_ref) ref[k] = i;
        ASSERT_EQ(this->index.Update(k, i), in_ref);
        break;
      }
      case 2:
        ASSERT_EQ(this->index.Erase(k), ref.erase(k) > 0);
        break;
      default: {
        uint64_t v = 0;
        bool found = this->index.Lookup(k, &v);
        ASSERT_EQ(found, ref.count(k) > 0);
        if (found) {
          ASSERT_EQ(v, ref[k]);
        }
      }
    }
  }
}

// ---------- string-keyed indexes ----------

template <typename Index>
class StringIndexConformanceTest : public ::testing::Test {
 public:
  Index index;
};

using StringIndexTypes =
    ::testing::Types<BTree<std::string>, SkipList<std::string>, Art, Masstree,
                     HybridBTree<std::string>, HybridArt, HybridMasstree>;
TYPED_TEST_SUITE(StringIndexConformanceTest, StringIndexTypes);

TYPED_TEST(StringIndexConformanceTest, BasicContract) {
  std::string a = "alpha", b = "beta";
  EXPECT_TRUE(this->index.Insert(a, 1));
  EXPECT_FALSE(this->index.Insert(a, 2));
  EXPECT_TRUE(this->index.Insert(b, 3));
  uint64_t v = 0;
  EXPECT_TRUE(this->index.Lookup(a, &v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(this->index.Update(b, 4));
  EXPECT_TRUE(this->index.Erase(a));
  EXPECT_FALSE(this->index.Lookup(a));
  EXPECT_EQ(this->index.size(), 1u);
}

TYPED_TEST(StringIndexConformanceTest, PrefixKeysCoexist) {
  std::string keys[] = {"a", "ab", "abc", "abcd", "b"};
  for (size_t i = 0; i < 5; ++i)
    EXPECT_TRUE(this->index.Insert(keys[i], i)) << keys[i];
  for (size_t i = 0; i < 5; ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(this->index.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(this->index.Lookup(std::string("abcde")));
}

TYPED_TEST(StringIndexConformanceTest, EmailWorkloadMatchesStdMap) {
  auto pool = GenEmails(2000);
  std::map<std::string, uint64_t> ref;
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::string& k = pool[rng.Uniform(pool.size())];
    if (rng.Uniform(3) == 0) {
      ASSERT_EQ(this->index.Erase(k), ref.erase(k) > 0);
    } else {
      ASSERT_EQ(this->index.Insert(k, i), ref.emplace(k, i).second);
    }
  }
  for (const auto& [k, v] : ref) {
    uint64_t got;
    ASSERT_TRUE(this->index.Lookup(k, &got)) << k;
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(this->index.size(), ref.size());
}

// ---------- outcome mutation API (common/index_api.h) ----------
//
// The IndexInsert/IndexUpdate/IndexRemove dispatchers must report identical
// outcomes whether the structure speaks the classic bool idiom (BTree, the
// locked hybrid) or is outcome-native (the OLC hybrid), so generic write
// paths (ycsb, serve, minidb) behave the same over every backend.

template <typename Index>
class OutcomeApiConformanceTest : public ::testing::Test {
 public:
  Index index;
};

using OutcomeApiTypes =
    ::testing::Types<BTree<uint64_t>, HybridBTree<uint64_t>,
                     OlcBTree<uint64_t>, OlcConcurrentHybridBTree<uint64_t>>;
TYPED_TEST_SUITE(OutcomeApiConformanceTest, OutcomeApiTypes);

TYPED_TEST(OutcomeApiConformanceTest, DispatchersAgreeOnOutcomes) {
  auto& t = this->index;
  const uint64_t k = 1;
  EXPECT_EQ(IndexUpdate(t, k, uint64_t{10}), MutateOutcome::kNotFound);
  EXPECT_EQ(IndexRemove(t, k), MutateOutcome::kNotFound);
  EXPECT_EQ(IndexInsert(t, k, uint64_t{10}), MutateOutcome::kInserted);
  EXPECT_EQ(IndexInsert(t, k, uint64_t{11}), MutateOutcome::kExists);
  uint64_t v = 0;
  EXPECT_TRUE(t.Lookup(k, &v));
  EXPECT_EQ(v, 10u);  // the rejected duplicate left the value alone
  EXPECT_EQ(IndexUpdate(t, k, uint64_t{20}), MutateOutcome::kUpdated);
  EXPECT_TRUE(t.Lookup(k, &v));
  EXPECT_EQ(v, 20u);
  EXPECT_EQ(IndexRemove(t, k), MutateOutcome::kRemoved);
  EXPECT_EQ(IndexRemove(t, k), MutateOutcome::kNotFound);
  EXPECT_FALSE(t.Lookup(k, &v));
  EXPECT_EQ(t.size(), 0u);
  // Reinsert after remove, and MutateOk classifies every outcome seen above.
  EXPECT_EQ(IndexInsert(t, k, uint64_t{30}), MutateOutcome::kInserted);
  EXPECT_TRUE(MutateOk(MutateOutcome::kInserted));
  EXPECT_TRUE(MutateOk(MutateOutcome::kUpdated));
  EXPECT_TRUE(MutateOk(MutateOutcome::kRemoved));
  EXPECT_FALSE(MutateOk(MutateOutcome::kNotFound));
  EXPECT_FALSE(MutateOk(MutateOutcome::kExists));
  EXPECT_FALSE(MutateOk(MutateOutcome::kRetry));
}

// ---------- unified-API concept conformance (common/index_api.h) ----------
//
// Compile-time contract: every structure in the library satisfies the
// concept tier it advertises, for the key spellings callers actually use.

// Dynamic trees serve the full RangeIndex surface.
static_assert(RangeIndex<BTree<uint64_t>, uint64_t>);
static_assert(RangeIndex<BTree<std::string>, std::string>);
static_assert(RangeIndex<SkipList<uint64_t>, uint64_t>);
static_assert(RangeIndex<SkipList<std::string>, std::string>);
static_assert(RangeIndex<Art, std::string_view>);
static_assert(RangeIndex<Art, std::string>);
static_assert(RangeIndex<Masstree, std::string_view>);

// Hybrid indexes (blocking and concurrent) are drop-in RangeIndexes.
static_assert(RangeIndex<HybridBTree<uint64_t>, uint64_t>);
static_assert(RangeIndex<HybridSkipList<uint64_t>, uint64_t>);
static_assert(RangeIndex<HybridCompressedBTree<uint64_t>, uint64_t>);
static_assert(RangeIndex<HybridArt, std::string>);
static_assert(RangeIndex<HybridMasstree, std::string>);

// Static/compact structures expose the read-only point-lookup tier.
static_assert(ReadOnlyPointIndex<Fst, std::string_view>);
static_assert(ReadOnlyPointIndex<CompactBTree<uint64_t>, uint64_t>);
static_assert(ReadOnlyPointIndex<CompactSkipList<uint64_t>, uint64_t>);
static_assert(ReadOnlyPointIndex<CompressedBTree<uint64_t>, uint64_t>);
static_assert(ReadOnlyPointIndex<CompactArt, std::string_view>);
static_assert(ReadOnlyPointIndex<CompactMasstree, std::string_view>);
static_assert(ReadOnlyPointIndex<Hot, std::string_view>);
static_assert(ReadOnlyPointIndex<PrefixBTree<>, std::string_view>);

// A static structure is not a dynamic one.
static_assert(!PointIndex<Fst, std::string_view>);
static_assert(!PointIndex<CompactBTree<uint64_t>, uint64_t>);

// Approximate filters.
static_assert(Filter<Surf>);
static_assert(Filter<BloomFilter>);
static_assert(Filter<BloomFilter, uint64_t>);

// The OLC stage: internally synchronized, with the legacy bool idiom for
// drop-in single-threaded use.
static_assert(MutablePointIndex<OlcBTree<uint64_t>, uint64_t>);
static_assert(RangeIndex<OlcBTree<uint64_t>, uint64_t>);

// The OLC hybrid is outcome-native: its scoped-enum mutation returns are
// deliberately not convertible to bool, so it is *not* a PointIndex —
// callers reach it only through the dispatchers (or handle kRetry
// themselves). The classic structures satisfy the same MutablePointIndex
// concept through the bool branch of the dispatchers.
static_assert(HasOutcomeMutations<OlcConcurrentHybridBTree<uint64_t>,
                                  uint64_t>);
static_assert(!PointIndex<OlcConcurrentHybridBTree<uint64_t>, uint64_t>);
static_assert(MutablePointIndex<OlcConcurrentHybridBTree<uint64_t>,
                                uint64_t>);
static_assert(MutablePointIndex<BTree<uint64_t>, uint64_t>);
static_assert(MutablePointIndex<HybridBTree<uint64_t>, uint64_t>);
static_assert(!HasOutcomeMutations<BTree<uint64_t>, uint64_t>);

}  // namespace
}  // namespace met
