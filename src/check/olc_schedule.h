// Interleaved multi-writer schedule harness for OlcBTree and the concurrent
// hybrid index built on it — the concurrent counterpart of the
// single-threaded differential harness in check/differential.h.
//
// Writers run over *disjoint* per-writer keyspaces, so even though the
// schedule interleaves freely at the node level (shared paths, splits,
// restarts), every writer's own operations are serialized per key and the
// structure's per-key linearizability contract makes each outcome exact:
// the writer checks every MutateOutcome and every read-back value against
// its private oracle map, operation by operation. Readers and scanners run
// concurrently over the full keyspace to keep optimistic descents, version
// validation and (for the hybrid) epoch-pinned snapshot reads under fire;
// their results are racy by construction and only exercised, not asserted.
//
// The harness goes through the unified mutation dispatchers
// (IndexInsert/IndexUpdate/IndexRemove, common/index_api.h), so the same
// schedule drives bool-idiom and outcome-native structures identically —
// this is also what pins the dispatcher mapping under real concurrency.
//
// Used by tests/olc_test.cc and tests/property_test.cc (fixed seeds, CI,
// TSan) and tools/fuzz_ops.cc (rolling seeds, nightly). Deterministic in
// (config, key function) *per writer thread*; cross-thread interleaving is
// whatever the scheduler produces, which is the point.
#ifndef MET_CHECK_OLC_SCHEDULE_H_
#define MET_CHECK_OLC_SCHEDULE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/index_api.h"

namespace met {
namespace check {

struct OlcScheduleConfig {
  int writers = 4;
  int readers = 2;
  int ops_per_writer = 8000;
  int keys_per_writer = 1500;  // per-writer keyspace size (collisions drive
                               // update/remove hits)
  uint64_t seed = 0x01c5eed;
};

struct OlcScheduleResult {
  bool ok = true;
  std::string message;  // first failure, with writer id and op index
};

namespace internal {

template <typename Key>
std::string KeyRepr(const Key& k) {
  return std::to_string(static_cast<uint64_t>(k));
}

}  // namespace internal

/// Drives `cfg.writers` writer threads (exact per-op outcome assertions
/// against per-writer oracles) plus `cfg.readers` reader/scanner threads
/// against *index, then verifies the final state single-threaded: size,
/// every surviving key's value, and Validate() where available.
/// `key_of(writer, i)` maps a writer id and a per-writer key index to a
/// key; ranges for distinct writers must be disjoint.
template <typename Index, typename KeyFn>
OlcScheduleResult RunOlcSchedule(Index* index, const OlcScheduleConfig& cfg,
                                 KeyFn key_of) {
  using Key = std::decay_t<decltype(key_of(0, 0))>;
  using Value = uint64_t;

  std::vector<std::map<Key, Value>> finals(cfg.writers);
  std::vector<std::string> errors(cfg.writers);  // one slot per writer
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(cfg.writers + cfg.readers));

  for (int t = 0; t < cfg.writers; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(cfg.seed + 0x9e3779b97f4a7c15ull *
                                         static_cast<uint64_t>(t + 1));
      std::map<Key, Value>& oracle = finals[t];
      auto fail = [&](int i, const char* op, const Key& k, MutateOutcome got,
                      const char* want) {
        std::ostringstream os;
        os << "writer " << t << " op " << i << " " << op << "("
           << internal::KeyRepr(k) << "): got " << MutateOutcomeName(got)
           << ", want " << want;
        errors[t] = os.str();
      };
      for (int i = 0; i < cfg.ops_per_writer && errors[t].empty(); ++i) {
        Key k = key_of(t, static_cast<int>(rng() %
                                           static_cast<uint64_t>(
                                               cfg.keys_per_writer)));
        Value v = rng() >> 1;  // headroom below any tombstone encoding
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2: {  // unique insert
            MutateOutcome o = IndexInsert(*index, k, v);
            bool present = oracle.count(k) != 0;
            if (o != (present ? MutateOutcome::kExists
                              : MutateOutcome::kInserted)) {
              fail(i, "Insert", k, o, present ? "exists" : "inserted");
              break;
            }
            if (!present) oracle.emplace(k, v);
            break;
          }
          case 3: {  // update-if-present
            MutateOutcome o = IndexUpdate(*index, k, v);
            auto it = oracle.find(k);
            if (it == oracle.end()) {
              if (o != MutateOutcome::kNotFound)
                fail(i, "Update", k, o, "not_found");
            } else if (o != MutateOutcome::kUpdated) {
              fail(i, "Update", k, o, "updated");
            } else {
              it->second = v;
            }
            break;
          }
          case 4:
          case 5: {  // remove
            MutateOutcome o = IndexRemove<Index, Key, Value>(*index, k);
            auto it = oracle.find(k);
            if (it == oracle.end()) {
              if (o != MutateOutcome::kNotFound)
                fail(i, "Remove", k, o, "not_found");
            } else if (o != MutateOutcome::kRemoved) {
              fail(i, "Remove", k, o, "removed");
            } else {
              oracle.erase(it);
            }
            break;
          }
          default: {  // read-your-writes point lookup
            Value got = 0;
            bool found = index->Lookup(k, &got);
            auto it = oracle.find(k);
            if (found != (it != oracle.end()) ||
                (found && got != it->second)) {
              std::ostringstream os;
              os << "writer " << t << " op " << i << " Lookup("
                 << internal::KeyRepr(k) << "): found=" << found
                 << " value=" << got << " vs oracle "
                 << (it != oracle.end() ? std::to_string(it->second)
                                        : std::string("absent"));
              errors[t] = os.str();
            }
            break;
          }
        }
      }
    });
  }

  for (int r = 0; r < cfg.readers; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(cfg.seed ^ (0xabcdefull + static_cast<uint64_t>(r)));
      std::vector<Value> vals;
      while (!stop.load(std::memory_order_acquire)) {
        Key k = key_of(static_cast<int>(rng() %
                                        static_cast<uint64_t>(cfg.writers)),
                       static_cast<int>(rng() % static_cast<uint64_t>(
                                                    cfg.keys_per_writer)));
        if (rng() % 8 == 0) {
          vals.clear();
          index->Scan(k, 64, &vals);
        } else {
          Value got = 0;
          index->Lookup(k, &got);
        }
      }
    });
  }

  for (int t = 0; t < cfg.writers; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = static_cast<size_t>(cfg.writers); t < threads.size(); ++t)
    threads[t].join();

  OlcScheduleResult result;
  for (const std::string& e : errors) {
    if (!e.empty()) {
      result.ok = false;
      result.message = e;
      return result;
    }
  }

  // Single-threaded epilogue: exact global state.
  if constexpr (requires { index->WaitForMergeIdle(); })
    index->WaitForMergeIdle();
  size_t want = 0;
  for (const auto& f : finals) want += f.size();
  if (index->size() != want) {
    result.ok = false;
    std::ostringstream os;
    os << "final size " << index->size() << " != oracle union " << want;
    result.message = os.str();
    return result;
  }
  for (const auto& f : finals) {
    for (const auto& [k, v] : f) {
      Value got = 0;
      bool found = index->Lookup(k, &got);
      if (!found || got != v) {
        result.ok = false;
        std::ostringstream os;
        os << "final Lookup(" << internal::KeyRepr(k) << "): found=" << found
           << " value=" << got << ", want " << v;
        result.message = os.str();
        return result;
      }
    }
  }
  if constexpr (requires(const Index& ci, std::ostream& os) {
                  { ci.Validate(os) } -> std::convertible_to<bool>;
                }) {
    std::ostringstream os;
    if (!index->Validate(os)) {
      result.ok = false;
      result.message = "Validate failed: " + os.str();
      return result;
    }
  }
  return result;
}

}  // namespace check
}  // namespace met

#endif  // MET_CHECK_OLC_SCHEDULE_H_
