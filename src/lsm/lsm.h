// Mini log-structured merge engine — the RocksDB stand-in for the Chapter 4
// system evaluation (see DESIGN.md, "Documented substitutions").
//
// Architecture mirrors Figure 4.2: an in-memory MemTable absorbs writes and
// flushes to sorted, block-structured SSTable files in level 0; leveled
// compaction keeps levels >= 1 sorted and non-overlapping. Each SSTable has
// an in-memory fence (block) index and an optional filter (Bloom or SuRF)
// that is consulted before any block I/O, exactly like Figure 4.3's Get /
// Seek / Count execution paths. "I/O" is counted as block-cache misses that
// hit the data file.
//
// Storage robustness (DESIGN.md, "Durability & fault injection"): all file
// access goes through met::io (EINTR/short-transfer loops, transient-error
// retry, fault injection); every block carries a CRC32C trailer and a
// checksum-failing block is quarantined — the read falls through to older
// levels instead of aborting. In durable mode (LsmOptions::durable or
// LsmTree::Open) a write-ahead log covers the memtable and a versioned
// MANIFEST records the live tables, so reopening the directory recovers to
// the last durable state after a crash. The default remains the historical
// ephemeral behavior: files are private to the instance and removed on
// destruction, with no WAL/MANIFEST overhead.
#ifndef MET_LSM_LSM_H_
#define MET_LSM_LSM_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom.h"
#include "check/fwd.h"
#include "common/assert.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "io/io.h"
#include "io/status.h"
#include "obs/obs.h"
#include "prof/memory_breakdown.h"
#include "surf/surf.h"

namespace met {

class LsmWal;

enum class LsmFilterType { kNone, kBloom, kSurfHash, kSurfReal };

const char* LsmFilterTypeName(LsmFilterType t);

struct LsmOptions {
  std::string dir = "/tmp/met_lsm";
  size_t memtable_bytes = 4u << 20;
  size_t block_bytes = 4096;
  size_t sstable_target_bytes = 8u << 20;
  size_t level0_table_limit = 4;
  size_t level1_bytes = 32u << 20;
  size_t level_multiplier = 10;
  size_t block_cache_blocks = 4096;  // ~16 MB with 4 KB blocks

  LsmFilterType filter = LsmFilterType::kNone;
  double bloom_bits_per_key = 14.0;
  uint32_t surf_suffix_bits = 4;  // hash or real, by filter type

  /// Environment all file I/O goes through; nullptr = io::Env::Posix().
  /// Tests and the crash-torture harness plug in an io::FaultyEnv here.
  io::Env* env = nullptr;

  /// Durable mode: WAL + MANIFEST + fsync'd tables; the directory survives
  /// the instance and is recovered on the next open. When false (default)
  /// the tree is ephemeral: no logging, files removed on destruction.
  bool durable = false;

  /// Group-fsync threshold: the WAL is synced once at least this many bytes
  /// have been appended since the last sync (plus on demand via SyncWal()).
  size_t wal_group_sync_bytes = 64u << 10;

  /// Soft cap checked by Validate(): total open table files per tree.
  size_t max_open_files = 4096;
};

/// Per-instance statistics — a thin view kept for API compatibility (tests
/// and benches reset/read these per tree). Process-wide aggregates,
/// including filter true/false-positive counters for live FPR, live in the
/// obs::MetricsRegistry under "lsm.*" (see LsmObsMetrics).
/// Counter fields are sync::RelaxedCounter, not uint64_t: the owning thread
/// is the only writer, but SyncObsCounters() reads them from whatever thread
/// runs an obs dump (registry collector), so reads must not tear.
struct LsmStats {
  sync::RelaxedCounter block_reads;       // disk block fetches (cache misses)
  sync::RelaxedCounter block_cache_hits;
  sync::RelaxedCounter filter_probes;
  sync::RelaxedCounter filter_negatives;  // I/Os saved by a filter
  sync::RelaxedCounter flushes;
  sync::RelaxedCounter compactions;
  sync::RelaxedCounter wal_appends;
  sync::RelaxedCounter wal_syncs;
  sync::RelaxedCounter block_corruptions;  // checksum failures => quarantined
};

/// Process-wide LSM metrics, shared by every LsmTree. Filter probes with a
/// positive answer are classified after the block search resolves them:
/// key present => true positive, absent => false positive, giving a live
/// false-positive rate fp / (tp + fp) per filter family.
///
/// The per-probe counters (block reads/hits, filter probes/negatives, WAL
/// appends/syncs, corruptions) are not updated atomically on the hot path —
/// each tree counts into its plain LsmStats and publishes the delta through
/// a registry collector whenever a dump runs. Rare events (manifest writes,
/// recovery actions) update their counters directly.
struct LsmObsMetrics {
  obs::Counter* block_reads;
  obs::Counter* block_cache_hits;
  obs::Counter* flushes;
  obs::Counter* compactions;
  obs::Counter* filter_probes;
  obs::Counter* filter_negatives;
  obs::Counter* bloom_true_positives;
  obs::Counter* bloom_false_positives;
  obs::Counter* surf_true_positives;
  obs::Counter* surf_false_positives;
  obs::Counter* wal_appends;
  obs::Counter* wal_syncs;
  obs::Counter* wal_replayed_records;
  obs::Counter* wal_torn_tails;
  obs::Counter* manifest_writes;
  obs::Counter* block_corruptions;
  obs::Counter* recovery_orphans_removed;
  obs::Counter* recovery_bad_tables;
  obs::Histogram* flush_ns;
  obs::Histogram* compaction_ns;
  obs::Histogram* compaction_entries;

  static const LsmObsMetrics& Get();
};

class LsmTree {
 public:
  explicit LsmTree(const LsmOptions& options);
  ~LsmTree();

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  /// Opens (or creates) a durable tree in options.dir, recovering the last
  /// durable state: live tables from the MANIFEST, then WAL replay into the
  /// memtable. Forces options.durable = true. A failed recovery still
  /// returns a tree (possibly degraded — see last_io_error()); `status`
  /// reports the outcome when non-null.
  static std::unique_ptr<LsmTree> Open(LsmOptions options,
                                       io::Status* status = nullptr);

  /// Applies the write. OK means the write is applied in memory (and, in
  /// durable mode, appended to the WAL — durable after the next sync); an
  /// error means it was not applied at all. Background work this Put
  /// triggered (group sync, flush, compaction) reports failures through
  /// last_io_error() instead, keeping the tree readable and retryable.
  io::Status Put(std::string_view key, std::string_view value);

  /// Unified point lookup (Figure 4.3, Get execution path).
  bool Lookup(std::string_view key, std::string* value = nullptr);

  /// Open seek: smallest key >= `lk` across all levels; nullopt at end.
  std::optional<std::string> Seek(std::string_view lk);

  /// Closed seek: smallest key in [lk, hk]; nullopt if the range is empty.
  std::optional<std::string> ClosedSeek(std::string_view lk,
                                        std::string_view hk);

  /// Count of distinct keys in [lk, hk]: exact without SuRF (scans blocks
  /// and dedupes stale versions across components); filter-accelerated and
  /// approximate with SuRF.
  uint64_t Count(std::string_view lk, std::string_view hk);

  /// Flushes the memtable and compacts until all level limits hold.
  io::Status Finish();

  /// Durable mode: fsyncs the WAL now, acking every Put so far. No-op
  /// (OK) when not durable.
  io::Status SyncWal();

  /// Simulates `kill -9`: drops all file handles without syncing, flushing,
  /// or cleaning up, and marks the tree crashed (writes fail, destructor
  /// leaves the directory untouched). Reopen with LsmTree::Open to recover.
  void SimulateCrash();

  /// Most recent I/O failure from background work (flush, compaction, group
  /// sync, recovery) — sticky until cleared.
  const io::Status& last_io_error() const { return last_io_error_; }
  void ClearLastIoError() { last_io_error_ = io::Status::OK(); }

  bool durable() const { return options_.durable; }

  const LsmStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LsmStats{}; }

  size_t FilterMemoryBytes() const;
  size_t NumTables() const;
  size_t NumLevels() const { return levels_.size(); }
  uint64_t DiskBytes() const;

  /// Total resident (in-memory) footprint: memtable, per-table metadata and
  /// fence indexes, filters, and the block cache. Excludes DiskBytes().
  size_t MemoryBytes() const;

  /// Component attribution; TotalBytes() == MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const;

  /// Verifies level ordering rules (L0 keys per-table sorted; levels >= 1
  /// sorted and non-overlapping), per-table fence-index monotonicity, and
  /// min/max-key bounds. No-op unless MET_CHECK_ENABLED (impl in
  /// check/lsm_check.cc).
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return CheckValidate(os);
#else
    (void)os;
    return true;
#endif
  }

 private:
  bool CheckValidate(std::ostream& os) const;  // check/lsm_check.cc
  friend struct check::TestAccess;

  struct SsTable {
    uint64_t id;
    std::string path;
    std::string min_key, max_key;
    uint64_t file_bytes = 0;  // total file size (blocks + footer + trailer)
    uint64_t data_bytes = 0;  // end of the block region (footer offset)
    uint64_t num_entries = 0;
    // Fence index: first key of each block + payload offset/length. The
    // on-disk block is payload followed by a 4-byte CRC32C trailer.
    std::vector<std::string> block_first_key;
    std::vector<uint64_t> block_offset;
    std::vector<uint32_t> block_length;
    std::unique_ptr<BloomFilter> bloom;
    std::unique_ptr<Surf> surf;
    std::unique_ptr<io::File> file;
    // Blocks that failed their checksum: never re-read, reads fall through
    // to older levels (graceful degradation).
    mutable std::set<size_t> quarantined;
  };

  using Block = std::vector<std::pair<std::string, std::string>>;

  io::Status FlushMemTable();
  io::Status MaybeCompact();
  io::Status CompactLevel0();
  io::Status CompactLevel(size_t level);
  io::Status WriteTable(
      const std::vector<std::pair<std::string, std::string>>& entries,
      std::unique_ptr<SsTable>* out);
  /// Splits a sorted entry stream into tables of at most target size. On
  /// error, already-written table files are removed before returning.
  io::Status WriteTables(
      std::vector<std::pair<std::string, std::string>>&& entries,
      std::vector<std::unique_ptr<SsTable>>* out);
  /// Reads and checksum-verifies every block; corrupt blocks are skipped
  /// (counted in *corrupt_blocks) rather than failing the call, so a
  /// compaction salvages everything still intact. Returns an error only for
  /// unrecoverable file-level I/O failures.
  io::Status ReadAll(const SsTable& t,
                     std::vector<std::pair<std::string, std::string>>* entries,
                     size_t* corrupt_blocks);

  /// nullptr when the block is quarantined (checksum failure or unreadable)
  /// — callers treat that as "no entries here" and fall through.
  const Block* GetBlock(const SsTable& t, size_t block_idx);
  /// `filter_hint`, when non-null, is this table's precomputed filter answer
  /// from the batched fan-out in Lookup; the probe is then accounted here
  /// (scalar order) instead of re-executed.
  bool TableGet(const SsTable& t, std::string_view key, std::string* value,
                const bool* filter_hint = nullptr);
  /// Smallest key >= lk stored in `t` (reads one block unless absent).
  std::optional<std::string> TableSeek(const SsTable& t, std::string_view lk);

  /// Filter checks: true = must read, false = certainly absent.
  bool FilterMayContain(const SsTable& t, std::string_view key);
  bool FilterMayContainRange(const SsTable& t, std::string_view lk,
                             std::string_view hk);

  // --- durability internals ---
  /// Serializes entries into the on-disk v2 format and creates the file
  /// (fsync'd in durable mode); fills everything but the filter.
  io::Status WriteTableFile(
      SsTable* t, const std::vector<std::pair<std::string, std::string>>& entries);
  void BuildFilter(SsTable* t,
                   const std::vector<std::pair<std::string, std::string>>& entries);
  /// Opens an existing table by id: reads trailer + footer (both
  /// checksummed), reconstructs the fence index, and rebuilds the filter
  /// from block data. A table with corrupt blocks keeps filter = null (a
  /// partial filter would return false negatives).
  io::Status OpenTable(uint64_t id, std::unique_ptr<SsTable>* out);
  /// Manifest write reflecting the current in-memory levels; bumps the
  /// manifest generation. Durable mode only.
  io::Status WriteManifest();
  /// Full recovery: manifest -> tables -> orphan GC -> WAL replay. Durable
  /// mode only; called from the constructor.
  io::Status Recover();
  void ApplyToMemtable(std::string_view key, std::string_view value);
  void CloseAndRemoveFile(SsTable& t);
  std::string TablePath(uint64_t id) const {
    return options_.dir + "/sst_" + std::to_string(id);
  }
  std::string WalPath(uint64_t gen) const {
    return options_.dir + "/wal_" + std::to_string(gen);
  }

  LsmOptions options_;
  io::Env* env_ = nullptr;
  std::map<std::string, std::string, std::less<>> memtable_;
  size_t memtable_bytes_ = 0;
  // levels_[0] may overlap (newest last); levels_[>=1] sorted, disjoint.
  std::vector<std::vector<std::unique_ptr<SsTable>>> levels_;
  uint64_t next_table_id_ = 0;
  std::vector<size_t> compact_cursor_;  // per-level rotating victim cursor
  LsmStats stats_;

  std::unique_ptr<LsmWal> wal_;
  uint64_t wal_gen_ = 0;
  uint64_t manifest_gen_ = 0;
  bool crashed_ = false;
  io::Status last_io_error_;

  // Lookup scratch (reused across calls to avoid per-read allocation):
  // candidate tables in probe order, their speculative filter answers
  // (0/1; 2 = not probed by the fan-out), and the Bloom fan-out arrays.
  std::vector<const SsTable*> probe_tables_;
  std::vector<uint8_t> probe_may_;
  std::vector<const BloomFilter*> probe_blooms_;
  std::vector<uint32_t> probe_bloom_slot_;

  // Publishes stats_ / outcome deltas to the global registry. Runs on every
  // obs dump via a registry collector — i.e. on arbitrary dump threads while
  // the owner thread keeps counting — so the counters it reads are
  // RelaxedCounters and the synced-watermark state is guarded by obs_mu_
  // (two concurrent dumps must not double-publish a delta).
  void SyncObsCounters() MET_EXCLUDES(obs_mu_);
  struct FilterOutcomes {
    sync::RelaxedCounter bloom_tp, bloom_fp, surf_tp, surf_fp;
  };
  FilterOutcomes outcomes_;
  mutable sync::Mutex obs_mu_;
  LsmStats obs_synced_ MET_GUARDED_BY(obs_mu_);  // already-published portion
  FilterOutcomes outcomes_synced_ MET_GUARDED_BY(obs_mu_);
  obs::MetricsRegistry::CollectorId obs_collector_ = 0;

  // Block cache: CLOCK over (table_id, block) -> decoded entries.
  struct CacheSlot {
    uint64_t table_id = ~0ull;
    size_t block = 0;
    Block entries;
    bool referenced = false;
  };
  std::vector<CacheSlot> cache_;
  std::map<std::pair<uint64_t, size_t>, size_t> cache_index_;
  size_t cache_hand_ = 0;
};

}  // namespace met

#endif  // MET_LSM_LSM_H_
