// Optimistic lock coupling (OLC) primitives, in the style of Leis et al.,
// "The ART of Practical Synchronization" (DaMoN'16) / the OLC B-tree.
//
// Each node carries one 64-bit version word:
//
//   bit 0  — obsolete: the node was unlinked and retired to the epoch
//            domain; any traversal that still reaches it must restart.
//   bit 1  — locked: a writer holds the node exclusively.
//   bits 2+ — version counter, bumped by every WriteUnlock.
//
// Readers never block: they read the version word, run, and re-validate.
// A reader that observes the lock bit (or a version change) *restarts* its
// whole operation from the root instead of spinning on the node; a root
// restart is at most a few cache misses on trees this size. Under the
// met::race cooperative scheduler, observing the lock bit first parks the
// reader (race::SpinWait) until another thread has stepped, so an
// unbudgeted restart loop cannot starve a descheduled lock holder. Writers
// upgrade their read "lock" with a single CAS (version -> version+LOCKED),
// mutate, and release with fetch_add, which simultaneously clears the lock
// bit and advances the version (the +2 carries out of bit 1).
//
// Restart budgets: every OLC operation runs a bounded restart loop and
// reports exhaustion (the mutation API's MutateOutcome::kRetry) instead of
// looping forever. Production structures default to kDefaultRestartBudget —
// large enough that exhaustion means pathological contention — while the
// model-check workloads use tiny budgets so bounded-exhaustive exploration
// terminates within the scheduler's step budget.
//
// The version word is a sync::Atomic, so every OLC protocol action is a
// met::race scheduling decision and visible to clang thread-safety/TSan.
// Node payloads read optimistically (counts, keys, child pointers) must be
// std::atomic with relaxed/acquire ordering — the version protocol, not the
// payload access, carries the synchronization.
#ifndef MET_COMMON_OLC_H_
#define MET_COMMON_OLC_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/sync.h"

// TSan neither supports std::atomic_thread_fence (-Wtsan, fatal under
// -Werror) nor models it; under TSan every payload access is an instrumented
// atomic and the seq_cst validation load carries the ordering, so the fence
// is compiled out there. Elsewhere it is the cheap LoadLoad barrier the
// validation protocol needs.
#if defined(__SANITIZE_THREAD__)
#define MET_OLC_ACQUIRE_FENCE() ((void)0)
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MET_OLC_ACQUIRE_FENCE() ((void)0)
#else
#define MET_OLC_ACQUIRE_FENCE() \
  std::atomic_thread_fence(std::memory_order_acquire)
#endif
#else
#define MET_OLC_ACQUIRE_FENCE() \
  std::atomic_thread_fence(std::memory_order_acquire)
#endif

namespace met::olc {

/// Restart attempts before an operation gives up with kRetry. One node-lock
/// hold spans a handful of cache-line writes, so thousands of consecutive
/// failed optimistic attempts only happen when a writer is descheduled
/// mid-split with many threads hammering the same node.
inline constexpr int kDefaultRestartBudget = 4096;

class VersionLock {
 public:
  static constexpr uint64_t kObsolete = 1;
  static constexpr uint64_t kLocked = 2;

  static bool IsLocked(uint64_t v) { return (v & kLocked) != 0; }
  static bool IsObsolete(uint64_t v) { return (v & kObsolete) != 0; }

  /// Starts an optimistic read section: returns the current version, or
  /// sets `restart` if the node is write-locked or obsolete.
  uint64_t ReadLockOrRestart(bool& restart) const {
    uint64_t v = word_.load(std::memory_order_seq_cst);
    if (IsLocked(v) || IsObsolete(v)) restart = true;
    if (IsLocked(v)) race::SpinWait("olc.locked");  // holder must step first
    return v;
  }

  /// Validates an optimistic read section begun at `version`: everything
  /// read since is consistent iff the version did not move.
  void CheckOrRestart(uint64_t version, bool& restart) const {
    // The acquire fence orders the payload loads of the read section before
    // this validation load (the loads themselves are relaxed).
    MET_OLC_ACQUIRE_FENCE();
    if (word_.load(std::memory_order_seq_cst) != version) restart = true;
  }

  /// Alias of CheckOrRestart marking the *end* of a read section.
  void ReadUnlockOrRestart(uint64_t version, bool& restart) const {
    CheckOrRestart(version, restart);
  }

  /// Atomically turns a validated read section into exclusive ownership.
  void UpgradeToWriteLockOrRestart(uint64_t version, bool& restart) {
    uint64_t expected = version;
    if (!word_.compare_exchange_strong(expected, version + kLocked,
                                       std::memory_order_seq_cst))
      restart = true;
  }

  /// Read-lock + immediate upgrade (for writers that need the lock outright).
  void WriteLockOrRestart(bool& restart) {
    uint64_t v = ReadLockOrRestart(restart);
    if (restart) return;
    UpgradeToWriteLockOrRestart(v, restart);
  }

  /// Releases exclusive ownership; the +kLocked carries the lock bit into
  /// the version counter, so the version advances and the bit clears in one
  /// atomic step.
  void WriteUnlock() { word_.fetch_add(kLocked, std::memory_order_seq_cst); }

  /// Releases and marks the node unlinked (it must already be unreachable
  /// from the tree and handed to the epoch domain).
  void WriteUnlockObsolete() {
    word_.fetch_add(kLocked + kObsolete, std::memory_order_seq_cst);
  }

  /// Current raw word (diagnostics / validators only).
  uint64_t Peek() const { return word_.load(std::memory_order_seq_cst); }

 private:
  // Versions start at neither-locked-nor-obsolete with a zero counter.
  mutable sync::Atomic<uint64_t> word_{kLocked + kLocked};
};

/// Counts restart attempts for one operation against a budget. `Next()` is
/// called at the top of each attempt; false means the budget is exhausted
/// and the operation should report kRetry. Yields the OS thread every few
/// failed attempts so a descheduled lock holder can run (no-op cost on the
/// first, almost-always-successful attempt).
class RestartBudget {
 public:
  explicit RestartBudget(int budget) : left_(budget) {}

  bool Next() {
    if (first_) {
      first_ = false;
      return true;
    }
    if (left_ <= 0) return false;
    --left_;
    if ((++spins_ & 7) == 0) std::this_thread::yield();
    return true;
  }

 private:
  int left_;
  int spins_ = 0;
  bool first_ = true;
};

}  // namespace met::olc

#endif  // MET_COMMON_OLC_H_
