// Fast Succinct Trie (Chapter 3): a static trie encoded with LOUDS-DS —
// LOUDS-Dense (bitmap-per-node) for the hot upper levels and LOUDS-Sparse
// (10 bits/node) for the lower levels — with FST's customized rank & select
// structures, SIMD label search and prefetching.
//
// The encoding follows the thesis exactly:
//  * LOUDS-Dense per node: 256-bit D-Labels, 256-bit D-HasChild, 1-bit
//    D-IsPrefixKey; values for terminating branches in level order.
//  * LOUDS-Sparse per label: S-Labels byte, S-HasChild bit, S-LOUDS bit
//    (set at node starts). A key that is a proper prefix of another key is
//    represented by the special 0xFF label at the start of its node.
//  * Navigation:  D-ChildNodePos(pos)  = 256 * rank1(D-HasChild, pos)
//                 S-ChildNodePos(pos)  = select1(S-LOUDS,
//                                          rank1(S-HasChild, pos) + 1)
//    with rank1 counting bits in [0, pos] and select1 1-based, plus the
//    dense->sparse adjustment via DenseNodeCount/DenseChildCount.
//
// Every optimization of Section 3.6 can be disabled through FstConfig so the
// Figure 3.6 breakdown is reproducible; with everything off the structure
// behaves like an earlier-generation LOUDS-Sparse trie.
#ifndef MET_FST_FST_H_
#define MET_FST_FST_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "bitvec/bitvector.h"
#include "bitvec/rank.h"
#include "bitvec/select.h"
#include "check/fwd.h"
#include "common/assert.h"
#include "common/index_api.h"

namespace met {

struct FstConfig {
  /// kFullKey stores every byte of every key (a 100%-accurate index).
  /// kMinUniquePrefix truncates each key one byte past its distinguishing
  /// prefix (the SuRF-Base representation, Section 4.1.1).
  enum class Mode { kFullKey, kMinUniquePrefix };

  Mode mode = Mode::kFullKey;

  /// Size ratio R between LOUDS-Sparse and LOUDS-Dense (Section 3.4): the
  /// cutoff is the largest level l with DenseSize(l) * R <= SparseSize(l).
  double size_ratio = 64.0;

  /// -1: choose dense levels automatically via size_ratio. 0: sparse-only.
  /// k>0: force exactly min(k, height) dense levels.
  int max_dense_levels = -1;

  /// Section 3.6 optimizations, individually toggleable (Figure 3.6).
  bool fast_rank = true;    // single-level LUT rank vs Poppy-style baseline
  bool fast_select = true;  // sampled select LUT vs binary search over rank
  bool simd_label_search = true;
  bool prefetch = true;

  /// Store a 64-bit value per key. SuRF disables this and keeps its own
  /// per-leaf suffix arrays addressed by leaf id.
  bool store_values = true;
};

class Fst {
 public:
  Fst() = default;

  Fst(const Fst&) = delete;
  Fst& operator=(const Fst&) = delete;
  Fst(Fst&&) = default;
  Fst& operator=(Fst&&) = default;

  /// Builds from sorted, unique keys. `values[i]` is stored for keys[i] when
  /// config.store_values is true. If `leaf_key_index` is non-null it
  /// receives, for every leaf id, the index of the key that produced it
  /// (used by SuRF to extract suffix bits).
  void Build(const std::vector<std::string>& keys,
             const std::vector<uint64_t>& values, const FstConfig& config = {},
             std::vector<uint32_t>* leaf_key_index = nullptr,
             std::vector<uint32_t>* leaf_depth = nullptr);

  /// Result of a point lookup at trie granularity.
  struct PathResult {
    bool found = false;
    uint32_t leaf_id = 0;   // index into values / suffix arrays
    uint32_t depth = 0;     // number of key bytes consumed by the path
    bool is_prefix_leaf = false;  // terminated at a prefix-key marker
  };

  /// Exact search down the trie. In kFullKey mode `found` implies the key is
  /// stored. In kMinUniquePrefix mode `found` means the key's path reached a
  /// stored (possibly truncated) leaf — SuRF layers suffix checks on top.
  PathResult LookupPath(std::string_view key) const;

  /// Unified point lookup (met::ReadOnlyPointIndex): true iff the key is
  /// stored (full-key mode rejects longer keys that merely pass through a
  /// terminal); writes the stored value.
  bool Lookup(std::string_view key, uint64_t* value = nullptr) const;

  /// Batched LookupPath (the met::batch pipeline, impl in fst_batch.cc):
  /// runs up to 16 keys at a time as interleaved state machines, issuing a
  /// software prefetch for the lines each probe's *next* descent step will
  /// touch (dense bitmap words + rank LUT entries, the S-LOUDS select LUT
  /// and scan window, sparse label/has-child lines). out[i] is identical to
  /// LookupPath(keys[i]) — asserted in checked builds.
  void LookupPathBatch(const std::string_view* keys, size_t n,
                       PathResult* out) const;

  /// Batched unified lookup (dispatched by met::LookupBatch): LookupPathBatch
  /// plus the full-key depth filter and a prefetched value-array gather.
  void LookupBatch(const std::string_view* keys, size_t n,
                   LookupResult* out) const;

  uint64_t ValueAt(uint32_t leaf_id) const { return values_[leaf_id]; }

  /// Iterator with per-level cursors (Section 3.4). Traverses leaves in key
  /// order; key() returns the stored path (truncated key in SuRF mode).
  class Iterator {
   public:
    Iterator() = default;

    bool Valid() const { return valid_; }
    /// The stored path of the current leaf.
    const std::string& key() const { return key_; }
    uint32_t leaf_id() const { return leaf_id_; }
    uint64_t value() const { return fst_->ValueAt(leaf_id_); }
    /// True if this leaf is a prefix-key (its path is a stored key that is a
    /// proper prefix of other stored keys).
    bool IsPrefixLeaf() const { return at_prefix_; }

    void Next();

   private:
    friend class Fst;

    struct LevelCursor {
      uint32_t pos;    // dense: absolute bit pos (node*256+byte); sparse: label index
      bool dense;
    };

    const Fst* fst_ = nullptr;
    bool valid_ = false;
    bool at_prefix_ = false;  // leaf is a prefix-key (dense bit or 0xFF marker)
    uint32_t leaf_id_ = 0;
    std::vector<LevelCursor> stack_;
    std::string key_;

    void ComputeLeafId();
  };

  /// Iterator at the first leaf whose path is >= `key` under the convention
  /// that a stored path which is a strict prefix of `key` compares as a
  /// match candidate: the iterator stops there and sets *fp_flag (SuRF's
  /// moveToNext semantics, Section 4.1.5). Pass fp_flag = nullptr for strict
  /// index semantics (such a leaf is skipped).
  Iterator LowerBound(std::string_view key, bool* fp_flag = nullptr) const;

  /// Iterator at the smallest leaf.
  Iterator Begin() const;

  /// Number of leaves whose path lies in [low_key, high_key), computed with
  /// per-level rank differences (may over-count by at most 2 at the
  /// boundaries in truncated mode, matching SuRF's count()).
  uint64_t CountRange(std::string_view low_key, std::string_view high_key) const;

  size_t num_keys() const { return num_keys_; }
  /// Alias of num_keys() (met::ReadOnlyPointIndex surface).
  size_t size() const { return num_keys_; }
  size_t num_leaves() const { return num_leaves_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t height() const { return height_; }
  size_t dense_levels() const { return dense_levels_; }

  /// Total encoded size (bit/byte sequences + rank/select LUTs + values).
  size_t MemoryBytes() const;

  /// Appends a self-contained binary image of the trie to `*out`. Rank and
  /// select supports are rebuilt on load, so the format stays small and
  /// version-stable.
  void Serialize(std::string* out) const;

  /// Restores a trie from `Serialize` output. Returns false (leaving the
  /// object empty) on a malformed image.
  bool Deserialize(std::string_view in);

  /// Memory excluding the value array (the filter footprint).
  size_t FilterMemoryBytes() const;

  /// Component attribution (dense/sparse encodings, rank & select supports,
  /// values); TotalBytes() == MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const;

  /// Breakdown of FilterMemoryBytes() only (no value array); SuRF embeds
  /// this subtree in its own breakdown.
  MemoryBreakdown FilterBreakdown() const;

  /// Cross-checks the LOUDS-Dense/Sparse encodings: bit-sequence sizes,
  /// D-HasChild ⊆ D-Labels, child-pointer bijection (#has-child bits ==
  /// #nodes - 1), rank/select inverses over S-LOUDS, 0xFF-marker placement,
  /// leaf/value accounting, and a full ordered iterator/Lookup round trip.
  /// No-op unless MET_CHECK_ENABLED (impl in check/fst_check.cc).
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return CheckValidate(os);
#else
    (void)os;
    return true;
#endif
  }

  // Test-only access to the raw encoding (validated against the thesis's
  // Figure 3.2 worked example).
  std::vector<uint8_t> SparseLabelsForTest() const {
    return std::vector<uint8_t>(s_labels_.begin(),
                                s_labels_.begin() + num_s_labels_);
  }
  const BitVector& SparseHasChildForTest() const { return s_has_child_; }
  const BitVector& SparseLoudsForTest() const { return s_louds_; }
  const BitVector& DenseLabelsForTest() const { return d_labels_; }
  const BitVector& DenseIsPrefixForTest() const { return d_is_prefix_; }

 private:
  friend class Iterator;
  friend struct check::TestAccess;
  bool CheckValidate(std::ostream& os) const;  // check/fst_check.cc

  // ----- rank/select wrappers honouring the config toggles -----
  size_t RankD(const RankSupport& fast, const PoppyRank& slow, size_t pos) const {
    return config_.fast_rank ? fast.Rank1(pos) : slow.Rank1(pos);
  }
  size_t SelectLouds(size_t rank) const;  // 1-based over S-LOUDS

  // ----- dense helpers -----
  bool DenseLabel(size_t pos) const { return d_labels_.Get(pos); }
  size_t DenseRankLabels(size_t pos) const {
    return RankD(d_labels_rank_, d_labels_poppy_, pos);
  }
  size_t DenseRankHasChild(size_t pos) const {
    return RankD(d_has_child_rank_, d_has_child_poppy_, pos);
  }
  /// Value index for a terminating dense branch at `pos`.
  size_t DenseValuePos(size_t pos) const;
  /// Value index for the prefix-key of dense node `m`.
  size_t DensePrefixValuePos(size_t m) const;

  // ----- sparse helpers -----
  /// [start, end) label range of the sparse node beginning at `start`.
  size_t SparseNodeEnd(size_t start) const;
  /// Position of sparse node number `n` (0-based among sparse nodes).
  size_t SparseNodePos(size_t n) const { return SelectLouds(n + 1); }
  size_t SparseRankHasChild(size_t pos) const {
    return RankD(s_has_child_rank_, s_has_child_poppy_, pos);
  }
  size_t SparseValuePos(size_t pos) const {
    return pos - SparseRankHasChild(pos);
  }
  /// Searches labels [start+skip, end) for `byte`; returns end if absent.
  size_t SearchLabel(size_t start, size_t end, uint8_t byte) const;
  /// True if the node starting at `start` begins with a 0xFF prefix marker.
  bool SparseHasMarker(size_t start, size_t end) const {
    return end - start >= 2 && s_labels_[start] == 0xFF;
  }

  /// Child node number (global, level-ordered) for a branch position.
  size_t DenseChildNodeNum(size_t pos) const { return DenseRankHasChild(pos); }
  size_t SparseChildNodeNum(size_t pos) const {
    return dense_child_count_ + SparseRankHasChild(pos);
  }

  // Iterator helpers.
  void DescendToMin(Iterator* it, size_t node_num) const;
  bool AdvanceCursor(Iterator* it) const;  // advance deepest cursor in-node
  void CursorDescendOrLeaf(Iterator* it) const;
  void AdvanceUp(Iterator* it) const;

  // ----- CountRange helpers -----
  /// Number of leaf values at dense level `l` whose path sorts strictly
  /// before the bound, given the frontier bit position within that level.
  uint64_t CountDenseLevelBefore(size_t l, uint64_t pos, bool include_marker,
                                 bool include_pos_value) const;
  uint64_t CountSparseLevelBefore(size_t l, uint64_t pos,
                                  bool include_pos_value) const;
  /// Start position of global node `node` (clamped: one-past-last maps to
  /// the end of the label space). Sets *dense accordingly.
  uint64_t NodeStartPos(uint64_t node, bool* dense) const;

  /// Per-level counts of leaves sorting strictly before a key.
  void ComputeFrontier(std::string_view key, std::vector<uint64_t>* counts) const;

  FstConfig config_;

  // Dense encoding.
  BitVector d_labels_, d_has_child_, d_is_prefix_;
  RankSupport d_labels_rank_, d_has_child_rank_, d_is_prefix_rank_;
  PoppyRank d_labels_poppy_, d_has_child_poppy_, d_is_prefix_poppy_;
  size_t dense_levels_ = 0;
  size_t dense_node_count_ = 0;
  size_t dense_child_count_ = 0;  // set bits in D-HasChild
  size_t dense_value_count_ = 0;

  // Sparse encoding. The label vector is padded with 16 slack bytes so the
  // SIMD label search can always issue one unaligned 16-byte load;
  // num_s_labels_ is the logical size.
  std::vector<uint8_t> s_labels_;
  size_t num_s_labels_ = 0;
  BitVector s_has_child_, s_louds_;
  RankSupport s_has_child_rank_, s_louds_rank_;
  PoppyRank s_has_child_poppy_, s_louds_poppy_;
  SelectSupport s_louds_select_;

  // Values, [dense leaves..., sparse leaves...] by leaf id.
  std::vector<uint64_t> values_;

  // Global node number of the first node at each level, with two sentinel
  // entries past the last level (for CountRange frontier extension).
  std::vector<uint64_t> level_node_start_;

  size_t num_keys_ = 0;
  size_t num_leaves_ = 0;
  size_t num_nodes_ = 0;
  size_t height_ = 0;
};

}  // namespace met

#endif  // MET_FST_FST_H_
