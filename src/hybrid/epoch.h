// Minimal epoch-based reclamation (EBR) for read-mostly pointer swaps.
//
// Readers Pin() a slot with the current global epoch before loading the
// protected pointer and Unpin() it after the last dereference. Publishers
// first unpublish an object (swap the shared atomic pointer to its
// replacement) and only then Retire() it; Retire draws its tag from a
// fetch_add on the global epoch, so the tag is ordered after the swap.
//
// Safety argument (all operations seq_cst, so one total order exists):
// a reader pinned at epoch e read e from the global counter before loading
// the pointer. If e <= tag, reclamation of that object is blocked until the
// reader unpins. If e > tag, the reader's load of the global counter is
// ordered after the Retire's fetch_add, which is ordered after the swap —
// so the reader's subsequent pointer load can only observe the replacement,
// never the retired object. Either way no reader dereferences freed memory.
//
// A pin taken at a stale epoch (the CAS claiming the slot may complete after
// further epoch advances) is only ever conservative: a smaller epoch blocks
// strictly more reclamation.
#ifndef MET_HYBRID_EPOCH_H_
#define MET_HYBRID_EPOCH_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "guard/clock.h"
#include "guard/metrics.h"
#include "race/hook.h"

namespace met {
namespace hybrid {

/// One reclamation domain: a fixed slot array for reader pins plus a
/// mutex-guarded list of retired deleters. Sized for tens of concurrent
/// readers; Pin() yields and retries if every slot is momentarily taken.
class EpochDomain {
 public:
  static constexpr size_t kSlots = 64;
  static constexpr uint64_t kFree = ~uint64_t{0};

  EpochDomain() {
    for (auto& s : slots_) s.epoch.store(kFree, std::memory_order_relaxed);
  }

  /// Runs every outstanding deleter. The owner must guarantee quiescence
  /// (no concurrent Pin/Retire) before destroying the domain.
  ~EpochDomain() {
    MET_DCHECK(PinnedSlots() == 0, "EpochDomain destroyed with active pins");
    for (auto& r : retired_) r.deleter();
  }

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// Claims a slot stamped with the current global epoch; the caller may
  /// dereference epoch-published pointers until Unpin(slot).
  size_t Pin() {
    for (;;) {
      uint64_t e = epoch_.load(std::memory_order_seq_cst);
      for (size_t i = 0; i < kSlots; ++i) {
        uint64_t expected = kFree;
        if (slots_[i].epoch.compare_exchange_strong(
                expected, e, std::memory_order_seq_cst))
          return i;
      }
      // > kSlots concurrent readers: rare, wait for a slot to free.
      race::SpinWait("epoch.pin_full");
      std::this_thread::yield();
    }
  }

  void Unpin(size_t slot) {
    slots_[slot].epoch.store(kFree, std::memory_order_seq_cst);
  }

  /// Takes ownership of an unpublished object via its deleter. The caller
  /// MUST have swapped the object out of every shared pointer before calling
  /// (the tag drawn here must be ordered after the unpublish; see the header
  /// comment). Reclamation is deferred to TryReclaim() so retirement stays
  /// O(1) — callers on a latency-critical path never free memory. Returns
  /// the retirement tag: once MinPinnedEpoch() > tag, no reader that could
  /// have observed the unpublished object is still pinned (the basis of
  /// WaitQuiescentSince handoffs).
  uint64_t Retire(std::function<void()> deleter) {
    uint64_t tag = epoch_.fetch_add(1, std::memory_order_seq_cst);
    sync::MutexLock l(mu_);
    retired_.push_back({tag, std::move(deleter)});
    return tag;
  }

  /// Blocks until every pin taken at an epoch <= `tag` has been released.
  /// After this returns, any object unpublished before the Retire() that
  /// produced `tag` is unreachable from every thread — the OLC hybrid's
  /// freeze handoff uses this to know the frozen stage has gone quiescent
  /// (late writers that loaded the pre-freeze snapshot have drained).
  /// The caller must not itself hold a pin taken at an epoch <= tag.
  void WaitQuiescentSince(uint64_t tag) const {
    while (MinPinnedEpoch() <= tag) {
      race::SpinWait("epoch.wait_quiescent");
      std::this_thread::yield();
    }
  }

  /// Frees every retired object no pinned reader can still observe
  /// (tag < minimum pinned epoch). Returns the number freed. Deleters run
  /// outside the internal lock.
  ///
  /// Also drives the stall watchdog: when the same oldest retired tag stays
  /// blocked by a pinned reader across calls, the blocked duration is
  /// published on the met.guard.epoch_stall_ms gauge (and, in debug builds,
  /// warned once per stall after 1s) — a reader that forgot to Unpin shows
  /// up as unbounded retired growth, and this points at it. `now_ns`
  /// overrides the watchdog's monotonic timestamp (tests); 0 reads the
  /// clock.
  size_t TryReclaim(uint64_t now_ns = 0) {
    uint64_t min_pinned = MinPinnedEpoch();
    std::vector<Retired> ready;
    {
      sync::MutexLock l(mu_);
      size_t kept = 0;
      for (auto& r : retired_) {
        if (r.tag < min_pinned)
          ready.push_back(std::move(r));
        else
          retired_[kept++] = std::move(r);
      }
      retired_.resize(kept);
      UpdateStallWatchdog(now_ns);
    }
    for (auto& r : ready) r.deleter();
    return ready.size();
  }

  uint64_t GlobalEpoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Smallest epoch any reader is pinned at; kFree when nothing is pinned
  /// (every retired object is then reclaimable).
  uint64_t MinPinnedEpoch() const {
    uint64_t min = kFree;
    for (const auto& s : slots_) {
      uint64_t v = s.epoch.load(std::memory_order_seq_cst);
      if (v < min) min = v;
    }
    return min;
  }

  size_t PinnedSlots() const {
    size_t n = 0;
    for (const auto& s : slots_)
      if (s.epoch.load(std::memory_order_seq_cst) != kFree) ++n;
    return n;
  }

  size_t RetiredCount() const {
    sync::MutexLock l(mu_);
    return retired_.size();
  }

  /// Verifies the domain's state-machine invariants; no-op unless
  /// MET_CHECK_ENABLED (impl in check/epoch_check.cc).
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return ValidateImpl(os);
#else
    (void)os;
    return true;
#endif
  }

  /// The checks behind Validate(); conclusive only at quiescence (a
  /// concurrent Pin/Retire can move the state between its reads).
  bool ValidateImpl(std::ostream& os) const;

 private:
  struct Retired {
    uint64_t tag;
    std::function<void()> deleter;
  };

  /// Debug-build warning threshold for a blocked reclamation anchor.
  static constexpr uint64_t kStallWarnNs = 1000ull * 1000 * 1000;

  /// Tracks how long the oldest retired tag has been blocked by a pin. Runs
  /// after the reclaim sweep, so a non-empty retired_ here means some pinned
  /// reader holds an epoch <= that tag (an unpinned backlog would have been
  /// swept). Progress — a different oldest tag, or an empty list — resets
  /// the timer.
  void UpdateStallWatchdog(uint64_t now_ns) MET_REQUIRES(mu_) {
    obs::Gauge* stall = guard::GuardObsMetrics::Get().epoch_stall_ms;
    if (retired_.empty()) {
      stall_anchor_tag_ = kFree;
      stall_warned_ = false;
      stall->Set(0);
      return;
    }
    uint64_t oldest = retired_.front().tag;
    for (const auto& r : retired_)
      if (r.tag < oldest) oldest = r.tag;
    if (now_ns == 0) now_ns = guard::MonotonicNanos();
    if (oldest != stall_anchor_tag_) {
      stall_anchor_tag_ = oldest;
      stall_since_ns_ = now_ns;
      stall_warned_ = false;
      stall->Set(0);
      return;
    }
    uint64_t blocked_ns =
        now_ns >= stall_since_ns_ ? now_ns - stall_since_ns_ : 0;
    stall->Set(static_cast<int64_t>(blocked_ns / guard::kNanosPerMilli));
#ifndef NDEBUG
    if (!stall_warned_ && blocked_ns >= kStallWarnNs) {
      stall_warned_ = true;
      std::fprintf(
          stderr,
          "met::hybrid: EBR reclamation stalled %llu ms: retired tag %llu "
          "blocked by pinned epoch %llu (reader holding a pin too long?)\n",
          static_cast<unsigned long long>(blocked_ns / guard::kNanosPerMilli),
          static_cast<unsigned long long>(oldest),
          static_cast<unsigned long long>(MinPinnedEpoch()));
    }
#endif
  }

  // Each slot on its own cache line: reader pins must not false-share.
  // sync::Atomic makes every pin/unpin a met::race scheduling decision.
  struct alignas(64) Slot {
    sync::Atomic<uint64_t> epoch;
  };

  sync::Atomic<uint64_t> epoch_{0};
  std::array<Slot, kSlots> slots_;
  mutable sync::Mutex mu_;
  std::vector<Retired> retired_ MET_GUARDED_BY(mu_);
  uint64_t stall_anchor_tag_ MET_GUARDED_BY(mu_) = kFree;
  uint64_t stall_since_ns_ MET_GUARDED_BY(mu_) = 0;
  bool stall_warned_ MET_GUARDED_BY(mu_) = false;
};

/// RAII pin on an EpochDomain.
class EpochGuard {
 public:
  explicit EpochGuard(EpochDomain& domain)
      : domain_(&domain), slot_(domain.Pin()) {}
  ~EpochGuard() { domain_->Unpin(slot_); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochDomain* domain_;
  size_t slot_;
};

}  // namespace hybrid
}  // namespace met

#endif  // MET_HYBRID_EPOCH_H_
