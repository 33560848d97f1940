// Cross-module integration and property tests: HOPE feeding FST/SuRF/
// hybrid indexes (the thesis's full recipe), plus edge-case hardening.
#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "bloom/bloom.h"
#include "btree/compact_btree.h"
#include "common/random.h"
#include "fst/fst.h"
#include "hope/hope.h"
#include "hybrid/hybrid.h"
#include "keys/keygen.h"
#include "surf/surf.h"
#include "gtest/gtest.h"

namespace met {
namespace {

// The full thesis recipe: HOPE-encode keys, index them with FST, answer
// range queries through encoded bounds — results must match the plain FST.
TEST(RecipeTest, HopePlusFstRangeQueriesMatchPlain) {
  auto keys = GenEmails(20000);
  SortUnique(&keys);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;

  HopeEncoder hope;
  std::vector<std::string> sample(keys.begin(), keys.begin() + 1000);
  hope.Build(sample, HopeScheme::k3Grams, 1 << 14);

  std::vector<std::string> encoded(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) encoded[i] = hope.Encode(keys[i]);
  ASSERT_TRUE(std::is_sorted(encoded.begin(), encoded.end()));

  Fst plain, compressed;
  plain.Build(keys, values);
  compressed.Build(encoded, values);
  EXPECT_LT(compressed.MemoryBytes(), plain.MemoryBytes());

  Random rng(3);
  for (int t = 0; t < 500; ++t) {
    const std::string& probe = keys[rng.Uniform(keys.size())];
    uint64_t v1 = ~0ull, v2 = ~0ull;
    ASSERT_TRUE(plain.Lookup(probe, &v1));
    ASSERT_TRUE(compressed.Lookup(hope.Encode(probe), &v2));
    EXPECT_EQ(v1, v2);
    // Lower-bound iteration agrees for 5 steps.
    auto it1 = plain.LowerBound(probe);
    auto it2 = compressed.LowerBound(hope.Encode(probe));
    for (int s = 0; s < 5 && it1.Valid(); ++s, it1.Next(), it2.Next()) {
      ASSERT_TRUE(it2.Valid());
      EXPECT_EQ(it1.value(), it2.value());
    }
  }
}

TEST(RecipeTest, HopePlusSurfKeepsOneSidedError) {
  auto all = GenUrls(20000);
  std::vector<std::string> stored;
  Random rng(5);
  for (const auto& k : all)
    if (rng.Uniform(2)) stored.push_back(k);
  SortUnique(&stored);

  HopeEncoder hope;
  std::vector<std::string> sample(stored.begin(), stored.begin() + 500);
  hope.Build(sample, HopeScheme::kDoubleChar);

  std::vector<std::string> encoded;
  for (const auto& k : stored) encoded.push_back(hope.Encode(k));
  SortUnique(&encoded);
  Surf surf;
  surf.Build(encoded, SurfConfig::Real(8));

  // Every stored key still positive through the encoder.
  for (const auto& k : stored)
    EXPECT_TRUE(surf.MayContain(hope.Encode(k))) << k;
}

TEST(RecipeTest, HopePlusHybridBTree) {
  auto keys = GenEmails(30000);
  HopeEncoder hope;
  std::vector<std::string> sample(keys.begin(), keys.begin() + 500);
  hope.Build(sample, HopeScheme::k4Grams, 1 << 14);

  HybridConfig cfg;
  cfg.min_merge_entries = 512;
  HybridBTree<std::string> plain(cfg), compressed(cfg);
  std::map<std::string, uint64_t> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = ref.emplace(keys[i], i).second;
    EXPECT_EQ(plain.Insert(keys[i], i), inserted);
    EXPECT_EQ(compressed.Insert(hope.Encode(keys[i]), i), inserted);
  }
  EXPECT_LT(compressed.MemoryBytes(), plain.MemoryBytes());
  Random rng(7);
  for (int t = 0; t < 2000; ++t) {
    const std::string& k = keys[rng.Uniform(keys.size())];
    uint64_t v1, v2;
    ASSERT_TRUE(plain.Lookup(k, &v1));
    ASSERT_TRUE(compressed.Lookup(hope.Encode(k), &v2));
    EXPECT_EQ(v1, v2);
  }
}

// FST over every possible single byte and byte pair: exhaustive small-domain
// property test for the trie encodings.
TEST(FstPropertyTest, ExhaustiveTwoByteDomain) {
  std::vector<std::string> keys;
  for (int a = 0; a < 256; a += 3) {
    keys.push_back(std::string(1, static_cast<char>(a)));
    for (int b = 0; b < 256; b += 17)
      keys.push_back(std::string{static_cast<char>(a), static_cast<char>(b)});
  }
  SortUnique(&keys);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;

  for (int dense : {0, 1, 2}) {
    FstConfig cfg;
    cfg.max_dense_levels = dense;
    Fst fst;
    fst.Build(keys, values, cfg);
    // Every 1- and 2-byte string classified correctly.
    for (int a = 0; a < 256; ++a) {
      std::string k1(1, static_cast<char>(a));
      EXPECT_EQ(fst.Lookup(k1), std::binary_search(keys.begin(), keys.end(), k1));
      std::string k2 = k1 + static_cast<char>((a * 7) % 256);
      EXPECT_EQ(fst.Lookup(k2), std::binary_search(keys.begin(), keys.end(), k2));
    }
    // Count over the whole domain equals the key count.
    EXPECT_EQ(fst.CountRange(std::string(1, '\0'), std::string(3, '\xff')),
              keys.size() - (keys[0] == std::string(1, '\0') ? 0 : 0));
  }
}

TEST(FstPropertyTest, IteratorFullRoundTripRandomInts) {
  auto ints = GenRandomInts(30000);
  SortUnique(&ints);
  auto keys = ToStringKeys(ints);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  Fst fst;
  fst.Build(keys, values);
  size_t i = 0;
  for (auto it = fst.Begin(); it.Valid(); it.Next(), ++i) {
    ASSERT_LT(i, keys.size());
    EXPECT_EQ(it.key(), keys[i]);
    EXPECT_EQ(it.value(), i);
  }
  EXPECT_EQ(i, keys.size());
}

// Merging batches into a CompactBTree (hybrid::Overlay, then Build) behaves
// exactly like applying them to a map.
TEST(CompactBTreePropertyTest, RepeatedMergesMatchMap) {
  CompactBTree<uint64_t> tree;
  tree.Build({});
  std::map<uint64_t, uint64_t> ref;
  Random rng(11);
  for (int round = 0; round < 20; ++round) {
    std::map<uint64_t, MergeEntry<uint64_t, uint64_t>> batch;
    for (int i = 0; i < 500; ++i) {
      uint64_t k = rng.Uniform(5000);
      bool del = rng.Uniform(4) == 0;
      batch[k] = {k, static_cast<uint64_t>(round * 1000 + i), del};
    }
    std::vector<MergeEntry<uint64_t, uint64_t>> updates;
    for (auto& [k, e] : batch) {
      updates.push_back(e);
      if (e.deleted)
        ref.erase(k);
      else
        ref[k] = e.value;
    }
    tree.Build(hybrid::Overlay(tree, std::move(updates)));
    ASSERT_EQ(tree.size(), ref.size()) << "round " << round;
  }
  for (const auto& [k, v] : ref) {
    uint64_t got;
    ASSERT_TRUE(tree.Lookup(k, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(BloomPropertyTest, FprTracksTheory) {
  for (double bpk : {8.0, 12.0, 16.0}) {
    BloomFilter bloom(100000, bpk);
    for (uint64_t k = 0; k < 100000; ++k) bloom.Add(k);
    size_t fp = 0, probes = 200000;
    for (uint64_t k = 0; k < probes; ++k) fp += bloom.MayContain(k + 10000000);
    double fpr = static_cast<double>(fp) / probes;
    double theory = std::pow(0.6185, bpk);  // (1/2^ln2)^bpk
    EXPECT_LT(fpr, theory * 2.5) << bpk;
    EXPECT_GT(fpr, theory / 10) << bpk;
  }
}

TEST(SurfPropertyTest, MixedSuffixInterpolatesFpr) {
  std::vector<std::string> stored, absent;
  auto all = GenEmails(30000);
  Random rng(13);
  for (auto& k : all) {
    if (rng.Uniform(2))
      stored.push_back(std::move(k));
    else
      absent.push_back(std::move(k));
  }
  SortUnique(&stored);

  auto fpr = [&](const SurfConfig& cfg) {
    Surf s;
    s.Build(stored, cfg);
    size_t fp = 0;
    for (const auto& k : absent) fp += s.MayContain(k);
    return static_cast<double>(fp) / absent.size();
  };
  double base = fpr(SurfConfig::Base());
  double hash8 = fpr(SurfConfig::Hash(8));
  double mixed = fpr(SurfConfig::Mixed(4, 4));
  EXPECT_LT(hash8, base);
  EXPECT_LT(mixed, base);
  EXPECT_LT(hash8, 0.01 + 1.0 / 200);  // ~2^-8 over colliding fraction
}

TEST(EdgeCaseTest, AllByteValuesInKeys) {
  // Keys spanning the full byte alphabet, including 0x00 and 0xFF runs.
  std::vector<std::string> keys;
  Random rng(17);
  for (int t = 0; t < 5000; ++t) {
    std::string k(1 + rng.Uniform(12), '\0');
    for (auto& c : k) c = static_cast<char>(rng.Uniform(256));
    keys.push_back(std::move(k));
  }
  SortUnique(&keys);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;

  Fst fst;
  fst.Build(keys, values);
  Surf surf;
  surf.Build(keys, SurfConfig::Real(8));
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(fst.Lookup(keys[i], &v)) << i;
    EXPECT_EQ(v, i);
    EXPECT_TRUE(surf.MayContain(keys[i]));
  }
  // Iterator order intact under adversarial bytes.
  size_t i = 0;
  for (auto it = fst.Begin(); it.Valid(); it.Next(), ++i)
    ASSERT_EQ(it.key(), keys[i]);
}

}  // namespace
}  // namespace met
