// Succinct Range Filter (Chapter 4): an approximate membership filter for
// point and range queries built on a truncated FST.
//
// Variants (Section 4.1): SuRF-Base stores minimum distinguishing prefixes;
// SuRF-Hash appends n hash bits per key (point-query FPR < 2^-n); SuRF-Real
// appends the n key bits following the stored prefix (helps both point and
// range queries); SuRF-Mixed stores both. All variants guarantee one-sided
// errors: a negative answer is always correct.
#ifndef MET_SURF_SURF_H_
#define MET_SURF_SURF_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "check/fwd.h"
#include "common/assert.h"
#include "fst/fst.h"

namespace met {

struct SurfConfig {
  uint32_t hash_suffix_bits = 0;
  uint32_t real_suffix_bits = 0;

  /// FST tuning passthrough.
  double size_ratio = 64.0;
  int max_dense_levels = -1;

  static SurfConfig Base() { return {0, 0}; }
  static SurfConfig Hash(uint32_t bits) { return {bits, 0}; }
  static SurfConfig Real(uint32_t bits) { return {0, bits}; }
  static SurfConfig Mixed(uint32_t hash_bits, uint32_t real_bits) {
    return {hash_bits, real_bits};
  }
};

class Surf {
 public:
  Surf() = default;

  Surf(const Surf&) = delete;
  Surf& operator=(const Surf&) = delete;
  Surf(Surf&&) = default;
  Surf& operator=(Surf&&) = default;

  /// Builds the filter from sorted, unique keys (single scan).
  void Build(const std::vector<std::string>& keys, const SurfConfig& config = {});

  /// Point membership test: false guarantees the key is absent.
  bool MayContain(std::string_view key) const;

  /// Batched point membership (met::batch): trie descents run through
  /// Fst::LookupPathBatch's interleaved pipeline, each hit's packed suffix
  /// word is prefetched, then the suffix compares execute. out[i] equals
  /// MayContain(keys[i]) exactly (asserted in checked builds).
  void MayContainBatch(const std::string_view* keys, size_t n, bool* out) const;

  /// Range membership test on [low_key, high_key] (inclusive bounds):
  /// false guarantees no stored key falls in the range.
  bool MayContainRange(std::string_view low_key, std::string_view high_key) const;

  /// Approximate number of keys in [low_key, high_key]; may over-count by at
  /// most 2 at the boundaries, never under-counts (Section 4.1.5).
  uint64_t Count(std::string_view low_key, std::string_view high_key) const;

  /// moveToNext(k): the smallest stored (truncated) key >= k. `fp_flag` is
  /// set when the returned key is a strict prefix of k, meaning the caller
  /// must fetch the real key to decide (Section 4.1.5). Used by the LSM
  /// engine's Seek path.
  struct SeekResult {
    bool found = false;
    bool fp_flag = false;
    std::string key;  // stored truncated key
  };
  SeekResult MoveToNext(std::string_view key) const;

  size_t num_keys() const { return fst_.num_keys(); }
  size_t MemoryBytes() const;

  /// Component attribution (truncated-FST filter + suffix words);
  /// TotalBytes() == MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const;
  double BitsPerKey() const {
    return num_keys() == 0 ? 0.0
                           : 8.0 * MemoryBytes() / static_cast<double>(num_keys());
  }
  size_t height() const { return fst_.height(); }

  /// Average leaf depth (Figure 6.16).
  double AvgLeafDepth() const { return avg_leaf_depth_; }

  /// Binary round trip (e.g. to persist the filter beside an SSTable).
  void Serialize(std::string* out) const;
  bool Deserialize(std::string_view in);

  /// Validates the underlying FST encoding plus the suffix-array sizing and,
  /// for every stored (truncated) key, the no-false-negative guarantee.
  /// No-op unless MET_CHECK_ENABLED (impl in check/surf_check.cc).
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return CheckValidate(os);
#else
    (void)os;
    return true;
#endif
  }

 private:
  bool CheckValidate(std::ostream& os) const;  // check/surf_check.cc
  friend struct check::TestAccess;

  uint32_t SuffixBitsTotal() const {
    return config_.hash_suffix_bits + config_.real_suffix_bits;
  }
  uint64_t StoredSuffix(uint32_t leaf_id) const;
  uint64_t QuerySuffix(std::string_view key, uint32_t depth) const;
  /// The real-suffix part of a query key at `depth` (low bits of the result).
  uint64_t QueryRealSuffix(std::string_view key, uint32_t depth) const;
  uint64_t StoredRealSuffix(uint32_t leaf_id) const;

  SurfConfig config_;
  Fst fst_;
  // Packed per-leaf suffixes, SuffixBitsTotal() bits each: the hash part in
  // the high bits, the real part in the low bits (fetched together).
  std::vector<uint64_t> suffix_words_;
  double avg_leaf_depth_ = 0;
};

}  // namespace met

#endif  // MET_SURF_SURF_H_
