// Concurrent dual-stage Hybrid Index: the Chapter 5 architecture made safe
// for concurrent readers, writers and a non-blocking background merge.
//
// Layout: writes land in a mutable *active* dynamic stage, an optimistically
// lock-coupled B+tree (btree/olc_btree.h). Behind it sit an immutable
// *frozen* dynamic stage (the previous active, being drained by the
// in-flight merge) and an immutable static stage. All three are reached
// through one epoch-protected snapshot pointer (hybrid/epoch.h); no lock
// guards the read or write path. Inserts, updates and deletes proceed in
// parallel with each other, with readers, and with the merge.
//
// Merge lifecycle (see DESIGN.md, "Concurrent hybrid index"):
//   freeze  — the merge claimant (merge_inflight_ CAS) swaps in a snapshot
//             whose frozen stage is the old active and whose active stage is
//             fresh, then retires the old snapshot, obtaining a tag. O(1).
//   handoff — before reading the frozen stage, the drainer calls
//             EpochDomain::WaitQuiescentSince(tag). Every mutation runs
//             under an epoch pin taken *before* loading the snapshot, so a
//             writer still mutating the now-frozen stage is pinned at an
//             epoch <= tag (pins ordered after the retire observe the new
//             snapshot; see epoch.h). Once those pins drain the frozen
//             stage is quiescent and includes every routed write.
//   drain   — frozen + old static are merged into a brand-new static stage
//             (hybrid::BuildMergedStatic) while readers and writers proceed.
//   publish — the drainer (still the sole snapshot swapper while
//             merge_inflight_) swaps in a snapshot with the merged static
//             stage and no frozen stage. O(1); the old snapshot is retired
//             and reclaimed off the request path.
//
// Mutations return MutateOutcome (common/index_api.h) and never block on a
// merge; kRetry surfaces a stage's exhausted restart budget with no state
// change. Outcomes and the size counter are exact under per-key
// serialization (no two threads racing the *same* key), the discipline all
// in-tree callers follow; under same-key races both are last-writer-wins
// approximations, as documented on OlcBTree.
//
// Point reads and scans are per-key atomic (each key reflects some state
// between the operation's invocation and return), but a multi-key scan is
// not a point-in-time snapshot of the whole index: it sees a fixed (frozen,
// static) pair plus the active stage as of each batch fetch.
//
// ConcurrentHybridConfig is normalized on construction:
//   - kMergeCold becomes kMergeAll: re-inserting the hot set would put
//     O(hot) work back on the publish path, and hot-tracking from the read
//     path would race.
//   - use_bloom is cleared: filter maintenance would reintroduce a writer
//     ordering point, and the OLC stage makes negative probes cheap (a
//     descent with no lock traffic).
// Use the blocking HybridIndex when either matters more than concurrency.
//
// Static stages must be safe for concurrent const reads. CompactBTree
// qualifies (pure const probes); CompressedBTree does not (mutable
// decompression cache).
#ifndef MET_HYBRID_OLC_HYBRID_H_
#define MET_HYBRID_OLC_HYBRID_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "btree/olc_btree.h"
#include "common/assert.h"
#include "common/index_api.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "hybrid/adapters.h"
#include "hybrid/epoch.h"
#include "hybrid/hybrid_index.h"
#include "hybrid/merge_core.h"
#include "obs/obs.h"

namespace met {

struct ConcurrentHybridConfig : HybridConfig {
  /// Drain merges on a background thread (production mode). When false the
  /// writer whose mutation triggered the merge drains synchronously once it
  /// has released its epoch pin: fully deterministic, which the differential
  /// harness and the schedule model checker rely on.
  bool background_merge = true;
};

/// Process-wide merge-phase metrics for the concurrent hybrid, split by
/// phase: freeze_ns and publish_ns are O(1) swaps, handoff_ns is the wait for
/// writers still pinned to the frozen stage, drain_ns is the rebuild.
struct OlcHybridObsMetrics {
  obs::Counter* merges;
  obs::Histogram* freeze_ns;
  obs::Histogram* handoff_ns;  // WaitQuiescentSince: the drain's wait
  obs::Histogram* drain_ns;
  obs::Histogram* publish_ns;
  obs::Histogram* merge_entries;

  static const OlcHybridObsMetrics& Get() {
    static const OlcHybridObsMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return OlcHybridObsMetrics{
          reg.GetCounter("hybrid.olc.merge.count"),
          reg.GetHistogram("hybrid.olc.merge.freeze_ns"),
          reg.GetHistogram("hybrid.olc.merge.handoff_ns"),
          reg.GetHistogram("hybrid.olc.merge.drain_ns"),
          reg.GetHistogram("hybrid.olc.merge.publish_ns"),
          reg.GetHistogram("hybrid.olc.merge.dynamic_entries"),
      };
    }();
    return m;
  }
};

/// DynamicStage is an OLC structure used directly (no adapter): it must
/// speak the native outcome surface (Upsert/UpdateIfPresent/Remove with a
/// previous-value out param) and concurrent-safe Lookup/ScanPairs/size. It
/// must never free a node a concurrent reader can still reach (OlcBTree
/// never frees nodes while live), so only snapshots are epoch-reclaimed.
template <typename Key, typename DynamicStage, typename StaticStage>
class OlcConcurrentHybridIndex {
 public:
  using Value = uint64_t;
  static constexpr Value kTombstone = ~Value{0};

  explicit OlcConcurrentHybridIndex(const ConcurrentHybridConfig& config = {})
      : config_(Normalize(config)) {
    snapshot_.store(new Snapshot{std::make_shared<DynamicStage>(), nullptr,
                                 std::make_shared<const StaticStage>(), 0},
                    std::memory_order_seq_cst);
  }

  ~OlcConcurrentHybridIndex() {
    WaitForMergeIdle();
    delete snapshot_.load(std::memory_order_seq_cst);
    // epoch_'s destructor runs any still-retired snapshot deleters.
  }

  OlcConcurrentHybridIndex(const OlcConcurrentHybridIndex&) = delete;
  OlcConcurrentHybridIndex& operator=(const OlcConcurrentHybridIndex&) =
      delete;

  /// Unique-mode insert: kExists if the key is live anywhere. Non-unique
  /// mode upserts: kInserted if the key was dead, else kUpdated.
  MutateOutcome Insert(const Key& key, Value value) {
    bool froze = false;
    uint64_t tag = 0;
    MutateOutcome result;
    {
      hybrid::EpochGuard g(epoch_);
      const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
      Value av = 0;
      bool in_active = s->active->Lookup(key, &av);
      bool was_live =
          in_active ? av != kTombstone : FindBelow(*s, key, nullptr);
      if (config_.unique && was_live) return MutateOutcome::kExists;
      Value prev = 0;
      MutateOutcome o = s->active->Upsert(key, value, &prev);
      if (o == MutateOutcome::kRetry) return o;
      if (!was_live) size_.fetch_add(1, std::memory_order_relaxed);
      result = was_live ? MutateOutcome::kUpdated : MutateOutcome::kInserted;
      froze = MaybeStartMerge(*s, &tag);
    }
    FinishMergeStart(froze, tag);
    return result;
  }

  /// Overwrite of a live key; new values land in the active stage so
  /// recently modified entries stay hot. kNotFound if dead or absent.
  MutateOutcome Update(const Key& key, Value value) {
    bool froze = false;
    uint64_t tag = 0;
    {
      hybrid::EpochGuard g(epoch_);
      const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
      Value av = 0;
      if (s->active->Lookup(key, &av)) {
        if (av == kTombstone) return MutateOutcome::kNotFound;
        Value prev = 0;
        MutateOutcome o = s->active->UpdateIfPresent(key, value, &prev);
        if (o != MutateOutcome::kNotFound) return o;  // kUpdated or kRetry
        // The entry vanished between probe and update (a racing physical
        // remove); fall through to the below-stage path.
      }
      if (!FindBelow(*s, key, nullptr)) return MutateOutcome::kNotFound;
      Value prev = 0;
      MutateOutcome o = s->active->Upsert(key, value, &prev);
      if (o == MutateOutcome::kRetry) return o;
      froze = MaybeStartMerge(*s, &tag);
    }
    FinishMergeStart(froze, tag);
    return MutateOutcome::kUpdated;
  }

  /// Removes a live key. Leaves a tombstone in the active stage iff the key
  /// is still live below it (frozen or static stage) — physically dropped
  /// at the next merge; otherwise removes physically.
  MutateOutcome Remove(const Key& key) {
    bool froze = false;
    uint64_t tag = 0;
    {
      hybrid::EpochGuard g(epoch_);
      const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
      Value av = 0;
      if (s->active->Lookup(key, &av)) {
        if (av == kTombstone) return MutateOutcome::kNotFound;
        Value prev = 0;
        MutateOutcome o;
        if (FindBelow(*s, key, nullptr))
          o = s->active->UpdateIfPresent(key, kTombstone, &prev);
        else
          o = s->active->Remove(key, &prev);
        if (o == MutateOutcome::kRetry) return o;
        if (o == MutateOutcome::kNotFound) return o;  // racing remove won
        size_.fetch_sub(1, std::memory_order_relaxed);
        return MutateOutcome::kRemoved;
      }
      if (!FindBelow(*s, key, nullptr)) return MutateOutcome::kNotFound;
      Value prev = 0;
      MutateOutcome o = s->active->Upsert(key, kTombstone, &prev);
      if (o == MutateOutcome::kRetry) return o;
      size_.fetch_sub(1, std::memory_order_relaxed);
      froze = MaybeStartMerge(*s, &tag);
    }
    FinishMergeStart(froze, tag);
    return MutateOutcome::kRemoved;
  }

  /// Unified point lookup; never blocks (active stage probes are OLC reads,
  /// lower stages are reached through the epoch-pinned snapshot).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    Value v = 0;
    if (s->active->Lookup(key, &v)) {
      if (v == kTombstone) return false;
      if (value != nullptr) *value = v;
      return true;
    }
    return FindBelow(*s, key, value);
  }

  /// Batched point lookup (dispatched by met::LookupBatch): one epoch pin
  /// and one snapshot load for the whole batch. Each key probes the active
  /// stage, then the frozen stage, with Lookup's tombstone rules; the keys
  /// neither decided go to the static stage's batch kernel in groups of
  /// kBatchGroup, and their results are scattered back.
  void LookupBatch(const Key* keys, size_t n, LookupResult* out) const {
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    Key pending[kBatchGroup] = {};
    size_t slot[kBatchGroup] = {};
    LookupResult below[kBatchGroup];
    size_t m = 0;
    auto flush = [&] {
      met::LookupBatch(*s->stat, pending, m, below);
      for (size_t j = 0; j < m; ++j) out[slot[j]] = below[j];
      m = 0;
    };
    for (size_t i = 0; i < n; ++i) {
      Value v = 0;
      if (s->active->Lookup(keys[i], &v) ||
          (s->frozen != nullptr && s->frozen->Lookup(keys[i], &v))) {
        out[i].found = v != kTombstone;
        out[i].value = out[i].found ? v : 0;
        continue;
      }
      pending[m] = keys[i];
      slot[m++] = i;
      if (m == kBatchGroup) flush();
    }
    if (m > 0) flush();
  }

  /// Ordered scan across the three stages (active shadows frozen shadows
  /// static). Per-key atomic only (see header): the (frozen, static) pair is
  /// fixed for the whole scan, the active stage is consulted per batch.
  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    std::shared_ptr<DynamicStage> active = s->active;
    std::array<hybrid::StageFetcher<Key, Value>, 3> fetch;
    fetch[0] = [active](const Key& from, size_t batch,
                        std::vector<std::pair<Key, Value>>* pairs) {
      active->ScanPairs(from, batch, pairs);
    };
    if (s->frozen != nullptr) {
      fetch[1] = [s](const Key& from, size_t batch,
                     std::vector<std::pair<Key, Value>>* pairs) {
        s->frozen->ScanPairs(from, batch, pairs);
      };
    }
    fetch[2] = [s](const Key& from, size_t batch,
                   std::vector<std::pair<Key, Value>>* pairs) {
      s->stat->ScanPairs(from, batch, pairs);
    };
    return hybrid::MergedScan<Key, Value, 3>(key, n, kTombstone, out, fetch);
  }

  /// Forces a merge of everything buffered so far and waits for it to
  /// publish (drains synchronously on the calling thread).
  void Merge() {
    for (;;) {
      WaitForMergeIdle();
      bool won = false, empty = false;
      uint64_t tag = 0;
      {
        hybrid::EpochGuard g(epoch_);
        const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
        if (!merge_inflight_.load(std::memory_order_seq_cst)) {
          if (s->active->size() == 0) {
            empty = true;
          } else if (!merge_inflight_.exchange(true,
                                               std::memory_order_seq_cst)) {
            tag = Freeze();
            won = true;
          }
        }
      }
      if (empty) return;
      if (won) {
        DrainAndPublish(tag);
        return;
      }
      // Another writer claimed the merge between the wait and the exchange;
      // wait it out and retry so post-Merge() state is fully drained.
    }
  }

  /// Blocks until no merge is in flight and the drain thread has exited.
  void WaitForMergeIdle() const {
    sync::MutexLock l(merge_mu_);
    merge_cv_.Wait(merge_mu_, [&] {
      return !merge_inflight_.load(std::memory_order_relaxed);
    });
    if (merge_thread_.joinable()) merge_thread_.join();
  }

  bool MergeInFlight() const {
    return merge_inflight_.load(std::memory_order_relaxed);
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  size_t MemoryUse() const { return MemoryBytes(); }
  size_t MemoryBytes() const {
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    size_t bytes = s->active->MemoryBytes() + s->stat->MemoryBytes();
    if (s->frozen != nullptr) bytes += s->frozen->MemoryBytes();
    return bytes;
  }

  /// Per-stage attribution; compare against MemoryBytes() only under
  /// quiesced merges (a merge between the accessors moves bytes).
  MemoryBreakdown Breakdown() const {
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    MemoryBreakdown b("olc_hybrid");
    b.AddChild("active_stage", s->active->Breakdown());
    if (s->frozen != nullptr)
      b.AddChild("frozen_stage", s->frozen->Breakdown());
    b.AddChild("static_stage", s->stat->Breakdown());
    return b;
  }

  size_t ActiveEntries() const {
    hybrid::EpochGuard g(epoch_);
    return snapshot_.load(std::memory_order_seq_cst)->active->size();
  }

  size_t DynamicEntries() const {
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    size_t n = s->active->size();
    if (s->frozen != nullptr) n += s->frozen->size();
    return n;
  }

  size_t StaticEntries() const {
    hybrid::EpochGuard g(epoch_);
    return snapshot_.load(std::memory_order_seq_cst)->stat->size();
  }

  HybridMergeStats merge_stats() const {
    sync::MutexLock l(merge_mu_);
    return stats_;
  }

  /// Incremented at each freeze and each publish (+2 per completed merge).
  uint64_t SnapshotVersion() const {
    hybrid::EpochGuard g(epoch_);
    return snapshot_.load(std::memory_order_seq_cst)->version;
  }

  std::shared_ptr<const StaticStage> StaticStageSnapshot() const {
    hybrid::EpochGuard g(epoch_);
    return snapshot_.load(std::memory_order_seq_cst)->stat;
  }

  const hybrid::EpochDomain& epoch_domain() const { return epoch_; }

  /// Quiescent-only (WaitForMergeIdle() first, no concurrent writers).
  /// Checks the snapshot state machine (no frozen stage, version advanced
  /// by two per completed merge), each stage's order and the dynamic
  /// stage's structural invariants, the tombstone discipline (none in the
  /// static stage; each active tombstone shadows a static entry), the size
  /// counter against the live entries, and the epoch domain.
  bool Validate(std::ostream& os) const {
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    if (s->frozen != nullptr) {
      os << "olc_hybrid: frozen stage present while idle\n";
      return false;
    }
    uint64_t merges = merge_stats().merge_count;
    if (s->version != 2 * merges) {
      os << "olc_hybrid: snapshot version " << s->version << " after "
         << merges << " merges\n";
      return false;
    }
    if (!s->active->Validate(os)) return false;
    using Pairs = std::vector<std::pair<Key, Value>>;
    Pairs act, sta;
    s->active->ScanPairs(hybrid::MinKey<Key>(), s->active->size(), &act);
    s->stat->ScanPairs(hybrid::MinKey<Key>(), s->stat->size(), &sta);
    auto key_less = [](const std::pair<Key, Value>& a,
                       const std::pair<Key, Value>& b) {
      return a.first < b.first;
    };
    auto strictly_sorted = [&](const Pairs& v) {
      for (size_t i = 1; i < v.size(); ++i)
        if (!key_less(v[i - 1], v[i])) return false;
      return true;
    };
    if (!strictly_sorted(act) || !strictly_sorted(sta)) {
      os << "olc_hybrid: a stage is not strictly sorted\n";
      return false;
    }
    size_t live = 0;
    for (const auto& p : sta) {
      if (p.second == kTombstone) {
        os << "olc_hybrid: tombstone in the static stage\n";
        return false;
      }
      ++live;
    }
    for (const auto& p : act) {
      bool below = std::binary_search(sta.begin(), sta.end(), p, key_less);
      if (p.second == kTombstone && !below) {
        os << "olc_hybrid: active tombstone shadows nothing\n";
        return false;
      }
      if (p.second == kTombstone) --live;
      else if (!below) ++live;
    }
    if (live != size()) {
      os << "olc_hybrid: size " << size() << " != live entries " << live
         << "\n";
      return false;
    }
    return epoch_.Validate(os);
  }

 private:
  struct Snapshot {
    // `active` is mutable through the const snapshot (shared_ptr does not
    // propagate const): the stage is internally synchronized, so the
    // published pointer itself is the only thing the epoch protocol guards.
    std::shared_ptr<DynamicStage> active;        // never null
    std::shared_ptr<const DynamicStage> frozen;  // null unless merging
    std::shared_ptr<const StaticStage> stat;     // never null
    uint64_t version;
  };

  /// Static-stage probes per batch kernel call in LookupBatch.
  static constexpr size_t kBatchGroup = 16;

  static ConcurrentHybridConfig Normalize(ConcurrentHybridConfig c) {
    c.strategy = HybridConfig::MergeStrategy::kMergeAll;  // see header note
    c.use_bloom = false;  // see header note
    return c;
  }

  /// Point probe below the active stage: frozen (tombstones delete), then
  /// static. Caller holds an epoch pin.
  static bool FindBelow(const Snapshot& s, const Key& key, Value* value) {
    Value v = 0;
    if (s.frozen != nullptr && s.frozen->Lookup(key, &v)) {
      if (v == kTombstone) return false;
      if (value != nullptr) *value = v;
      return true;
    }
    if (s.stat->Lookup(key, &v)) {
      if (value != nullptr) *value = v;
      return true;
    }
    return false;
  }

  /// Checks the merge trigger against the snapshot the caller just wrote
  /// through and, on winning the claim CAS, freezes. Caller holds an epoch
  /// pin; on true, it must call FinishMergeStart(froze, tag) after
  /// releasing it.
  bool MaybeStartMerge(const Snapshot& s, uint64_t* tag) {
    if (merge_inflight_.load(std::memory_order_seq_cst)) return false;
    size_t dyn = s.active->size();
    if (dyn == 0) return false;
    if (config_.constant_trigger) {
      if (dyn < config_.constant_threshold) return false;
    } else {
      if (dyn < config_.min_merge_entries) return false;
      if (static_cast<double>(dyn) * config_.merge_ratio <
          static_cast<double>(s.stat->size()))
        return false;
    }
    if (merge_inflight_.exchange(true, std::memory_order_seq_cst))
      return false;  // another writer claimed it first
    *tag = Freeze();
    return true;
  }

  /// Swaps in the frozen-stage snapshot. Caller holds the merge claim and
  /// an epoch pin; while merge_inflight_ is set this thread (then the
  /// drainer) is the only snapshot swapper.
  uint64_t Freeze() {
    obs::ScopedTimer trace(nullptr, "hybrid.olc.freeze");
    Timer timer;
    const Snapshot* old = snapshot_.load(std::memory_order_seq_cst);
    MET_DCHECK(old->frozen == nullptr,
               "freeze with a merge already in flight");
    size_t frozen_entries = old->active->size();
    auto* next = new Snapshot{std::make_shared<DynamicStage>(), old->active,
                              old->stat, old->version + 1};
    snapshot_.store(next, std::memory_order_seq_cst);
    uint64_t tag = epoch_.Retire([old] { delete old; });
    {
      sync::MutexLock l(merge_mu_);
      stats_.last_merge_dynamic_entries = frozen_entries;
      stats_.last_merge_static_entries = next->stat->size();
    }
    OlcHybridObsMetrics::Get().freeze_ns->RecordNanos(timer.ElapsedNanos());
    return tag;
  }

  /// Launches the drain for a completed freeze. The caller must have
  /// released its epoch pin (the drain waits on pins <= tag).
  void FinishMergeStart(bool froze, uint64_t tag) {
    if (!froze) return;
    if (config_.background_merge) {
      sync::MutexLock l(merge_mu_);
      // The previous drain fully finished before this freeze could claim
      // merge_inflight_, so the join returns immediately.
      if (merge_thread_.joinable()) merge_thread_.join();
      merge_thread_ = std::thread([this, tag] { DrainAndPublish(tag); });
    } else {
      DrainAndPublish(tag);
    }
  }

  /// Epoch handoff + off-pin drain + publish. Runs with no pin held at
  /// entry (WaitQuiescentSince would deadlock on the caller's own pin).
  void DrainAndPublish(uint64_t tag) {
    Timer handoff_timer;
    {
      obs::ScopedTimer trace(nullptr, "hybrid.olc.handoff");
      // After this, every writer that loaded the pre-freeze snapshot has
      // unpinned: the frozen stage is quiescent and complete.
      epoch_.WaitQuiescentSince(tag);
    }
    uint64_t handoff_ns = handoff_timer.ElapsedNanos();

    Timer drain_timer;
    std::shared_ptr<StaticStage> next_stat;
    size_t drained = 0;
    {
      obs::ScopedTimer trace(nullptr, "hybrid.olc.drain");
      hybrid::EpochGuard g(epoch_);
      const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
      MET_DCHECK(s->frozen != nullptr, "drain without a frozen stage");
      std::vector<MergeEntry<Key, Value>> entries;
      entries.reserve(s->frozen->size());
      hybrid::CollectSortedEntries<Key, Value>(*s->frozen, kTombstone,
                                               &entries);
      drained = entries.size();
      next_stat = hybrid::BuildMergedStatic<StaticStage>(*s->stat, entries);
    }
    uint64_t drain_ns = drain_timer.ElapsedNanos();

    Timer publish_timer;
    {
      obs::ScopedTimer trace(nullptr, "hybrid.olc.publish");
      // Sole swapper while merge_inflight_: load-swap-retire needs no pin.
      const Snapshot* cur = snapshot_.load(std::memory_order_seq_cst);
      auto* next = new Snapshot{
          cur->active, nullptr,
          std::shared_ptr<const StaticStage>(std::move(next_stat)),
          cur->version + 1};
      snapshot_.store(next, std::memory_order_seq_cst);
      epoch_.Retire([cur] { delete cur; });
    }
    epoch_.TryReclaim();  // old frozen/static/snapshots free here, off-path

    const OlcHybridObsMetrics& obs = OlcHybridObsMetrics::Get();
    obs.merges->Increment();
    obs.handoff_ns->RecordNanos(handoff_ns);
    obs.drain_ns->RecordNanos(drain_ns);
    obs.publish_ns->RecordNanos(publish_timer.ElapsedNanos());
    obs.merge_entries->Record(drained);
    {
      sync::MutexLock l(merge_mu_);
      ++stats_.merge_count;
      stats_.last_merge_seconds = static_cast<double>(drain_ns) / 1e9;
      stats_.total_merge_seconds += stats_.last_merge_seconds;
      merge_inflight_.store(false, std::memory_order_relaxed);
      merge_cv_.NotifyAll();
    }
  }

  ConcurrentHybridConfig config_;

  /// Published pointer: readers and writers reach it through an epoch pin,
  /// never a lock; the merge claimant swaps it and retires the old value.
  sync::Atomic<const Snapshot*> snapshot_{nullptr};
  mutable hybrid::EpochDomain epoch_;

  sync::Atomic<size_t> size_{0};

  sync::Atomic<bool> merge_inflight_{false};
  mutable sync::Mutex merge_mu_;
  mutable sync::CondVar merge_cv_;
  mutable std::thread merge_thread_ MET_GUARDED_BY(merge_mu_);
  HybridMergeStats stats_ MET_GUARDED_BY(merge_mu_);
};

/// The served configuration: OLC B+tree active stage over a Compact B+tree
/// static stage (met_server's memory engine, the sharded YCSB driver).
template <typename Key>
using OlcConcurrentHybridBTree =
    OlcConcurrentHybridIndex<Key, OlcBTree<Key>, StatCompactBTreeStage<Key>>;

static_assert(HasOutcomeMutations<OlcConcurrentHybridBTree<uint64_t>,
                                  uint64_t>);
static_assert(MutablePointIndex<OlcConcurrentHybridBTree<uint64_t>,
                                uint64_t>);
static_assert(HasNativeLookupBatch<OlcConcurrentHybridBTree<uint64_t>,
                                   uint64_t>);

}  // namespace met

#endif  // MET_HYBRID_OLC_HYBRID_H_
