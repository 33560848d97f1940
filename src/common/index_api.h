// Unified index API: the concept layer every met search structure conforms
// to, plus the uniform LookupResult record and the generic batched-lookup
// entry point.
//
// Terminology (aligned across the whole library):
//   Lookup      — exact point lookup:  bool Lookup(key, Value* out = nullptr)
//   Insert      — unique insert (false on duplicate)
//   Erase       — point delete
//   Scan        — ordered scan of up to n values from lower_bound(key)
//   MemoryBytes — total structure footprint in bytes
//
// Key convention: string-keyed structures (ART, Masstree, HOT, FST, SuRF,
// the prefix B+tree) take std::string_view; the generic template trees
// (B+tree, skip list, their compact forms) take their Key type, which is
// std::string for byte-string workloads.
//
// Concepts are parameterized on the key type a caller intends to use, e.g.
//   static_assert(met::PointIndex<met::Art, std::string_view>);
//   static_assert(met::RangeIndex<met::BTree<uint64_t>, uint64_t>);
// so one structure can conform for several key spellings (std::string and
// std::string_view both work against ART).
#ifndef MET_COMMON_INDEX_API_H_
#define MET_COMMON_INDEX_API_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "prof/memory_breakdown.h"

namespace met {

/// Uniform outcome of one mutation through the unified Insert/Update/Remove
/// surface (IndexInsert/IndexUpdate/IndexRemove below, and the native
/// outcome-returning methods on the concurrent structures).
///
///   kInserted — the key was absent (or dead) and is now live with the value.
///   kUpdated  — the key was live and its value was replaced.
///   kRemoved  — the key was live and is now dead.
///   kNotFound — Update/Remove target was not live; nothing changed.
///   kExists   — unique-mode Insert hit a live key; nothing changed.
///   kRetry    — an optimistic structure exhausted its restart budget under
///               contention; nothing changed and the caller may retry.
enum class MutateOutcome : uint8_t {
  kInserted,
  kUpdated,
  kRemoved,
  kNotFound,
  kExists,
  kRetry,
};

/// True for the outcomes that changed the structure.
constexpr bool MutateOk(MutateOutcome o) {
  return o == MutateOutcome::kInserted || o == MutateOutcome::kUpdated ||
         o == MutateOutcome::kRemoved;
}

constexpr const char* MutateOutcomeName(MutateOutcome o) {
  switch (o) {
    case MutateOutcome::kInserted: return "inserted";
    case MutateOutcome::kUpdated: return "updated";
    case MutateOutcome::kRemoved: return "removed";
    case MutateOutcome::kNotFound: return "not_found";
    case MutateOutcome::kExists: return "exists";
    case MutateOutcome::kRetry: return "retry";
  }
  return "?";
}

/// Uniform result of one unified point lookup. Batch kernels fill arrays of
/// these; the scalar convenience overloads return it by value.
struct LookupResult {
  bool found = false;
  uint64_t value = 0;

  explicit operator bool() const { return found; }
  friend bool operator==(const LookupResult&, const LookupResult&) = default;
};

/// Read-only point-lookup surface: static structures (FST, the compact
/// trees) satisfy exactly this.
template <typename T, typename K, typename V = uint64_t>
concept ReadOnlyPointIndex =
    requires(const T& t, const K& k, V* vp) {
      { t.Lookup(k, vp) } -> std::convertible_to<bool>;
      { t.MemoryBytes() } -> std::convertible_to<size_t>;
      { t.size() } -> std::convertible_to<size_t>;
    };

/// Full dynamic point index (the hybrid stages, the original trees).
template <typename T, typename K, typename V = uint64_t>
concept PointIndex =
    ReadOnlyPointIndex<T, K, V> &&
    requires(T& t, const K& k, const V& v) {
      { t.Insert(k, v) } -> std::convertible_to<bool>;
      { t.Erase(k) } -> std::convertible_to<bool>;
    };

/// Point index that also serves ordered scans.
template <typename T, typename K, typename V = uint64_t>
concept RangeIndex =
    PointIndex<T, K, V> &&
    requires(const T& t, const K& k, size_t n, std::vector<V>* out) {
      { t.Scan(k, n, out) } -> std::convertible_to<size_t>;
    };

/// True when the structure natively speaks the outcome-returning mutation
/// surface (the OLC hybrid index). Scoped-enum returns are deliberately not
/// convertible to bool, so these types are *not* PointIndex — callers must
/// go through IndexInsert/IndexUpdate/IndexRemove (or handle kRetry
/// themselves), which is the point of the redesign.
template <typename T, typename K, typename V = uint64_t>
concept HasOutcomeMutations =
    requires(T& t, const K& k, const V& v) {
      { t.Insert(k, v) } -> std::same_as<MutateOutcome>;
      { t.Update(k, v) } -> std::same_as<MutateOutcome>;
      { t.Remove(k) } -> std::same_as<MutateOutcome>;
    };

/// Uniform mutation entry points: native outcome methods when the structure
/// has them, otherwise the classic bool Insert/Update/Erase idiom mapped
/// onto outcomes. Classic structures never report kRetry. The requires
/// clauses keep the dispatchers SFINAE-honest so MutablePointIndex below
/// only claims types one of the branches can actually serve.
template <typename T, typename K, typename V>
  requires(HasOutcomeMutations<T, K, V> ||
           requires(T& t, const K& k, const V& v) {
             { t.Insert(k, v) } -> std::convertible_to<bool>;
           })
MutateOutcome IndexInsert(T& t, const K& k, const V& v) {
  if constexpr (HasOutcomeMutations<T, K, V>) {
    return t.Insert(k, v);
  } else {
    return t.Insert(k, v) ? MutateOutcome::kInserted : MutateOutcome::kExists;
  }
}

template <typename T, typename K, typename V>
  requires(HasOutcomeMutations<T, K, V> ||
           requires(T& t, const K& k, const V& v) {
             { t.Update(k, v) } -> std::convertible_to<bool>;
           })
MutateOutcome IndexUpdate(T& t, const K& k, const V& v) {
  if constexpr (HasOutcomeMutations<T, K, V>) {
    return t.Update(k, v);
  } else {
    return t.Update(k, v) ? MutateOutcome::kUpdated : MutateOutcome::kNotFound;
  }
}

template <typename T, typename K, typename V = uint64_t>
  requires(HasOutcomeMutations<T, K, V> ||
           requires(T& t, const K& k) {
             { t.Erase(k) } -> std::convertible_to<bool>;
           })
MutateOutcome IndexRemove(T& t, const K& k) {
  if constexpr (HasOutcomeMutations<T, K, V>) {
    return t.Remove(k);
  } else {
    return t.Erase(k) ? MutateOutcome::kRemoved : MutateOutcome::kNotFound;
  }
}

/// The unified mutable surface: anything the IndexInsert/IndexUpdate/
/// IndexRemove dispatchers accept — classic bool-idiom structures (every
/// PointIndex with an Update) and outcome-native concurrent structures
/// alike. This is the concept generic write paths (ycsb, serve, minidb)
/// constrain on.
template <typename T, typename K, typename V = uint64_t>
concept MutablePointIndex =
    ReadOnlyPointIndex<T, K, V> &&
    requires(T& t, const K& k, const V& v) {
      { IndexInsert(t, k, v) } -> std::same_as<MutateOutcome>;
      { IndexUpdate(t, k, v) } -> std::same_as<MutateOutcome>;
      { IndexRemove<T, K, V>(t, k) } -> std::same_as<MutateOutcome>;
    };

/// Approximate membership filter (Bloom, SuRF): false means certainly
/// absent. SuRF additionally answers MayContainRange; Bloom also conforms
/// for K = uint64_t.
template <typename T, typename K = std::string_view>
concept Filter = requires(const T& t, const K& k) {
  { t.MayContain(k) } -> std::convertible_to<bool>;
  { t.MemoryBytes() } -> std::convertible_to<size_t>;
};

/// Component-level memory attribution: Breakdown() returns a MemoryBreakdown
/// tree whose TotalBytes() equals MemoryBytes() exactly — both are computed
/// from the same primitives, and tests/prof_test.cc holds every structure to
/// the equality. Cold-path only (walks the structure).
template <typename T>
concept HasMemoryBreakdown = requires(const T& t) {
  { t.Breakdown() } -> std::convertible_to<MemoryBreakdown>;
};

/// True when the structure ships a hand-rolled interleaved batch kernel
/// (FST; SuRF and Bloom expose the analogous MayContainBatch).
template <typename T, typename K>
concept HasNativeLookupBatch =
    requires(const T& t, const K* keys, size_t n, LookupResult* out) {
      { t.LookupBatch(keys, n, out) };
    };

/// Batched point lookup over any unified index: dispatches to the
/// structure's native interleaved kernel when one exists, otherwise runs
/// the scalar path per key. Results are bit-identical to n scalar Lookup
/// calls either way (enforced in Debug inside the native kernels).
template <typename Index, typename K>
void LookupBatch(const Index& index, const K* keys, size_t n,
                 LookupResult* out) {
  if constexpr (HasNativeLookupBatch<Index, K>) {
    index.LookupBatch(keys, n, out);
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      out[i].found = index.Lookup(keys[i], &v);
      out[i].value = out[i].found ? v : 0;
    }
  }
}

}  // namespace met

#endif  // MET_COMMON_INDEX_API_H_
