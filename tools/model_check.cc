// met::race model checker — bounded-exhaustive schedule exploration of the
// concurrent serving path (see src/race/sched.h and DESIGN.md, "Concurrency
// correctness").
//
// Workloads:
//   hybrid  Freeze/handoff/drain/publish on the served
//           OlcConcurrentHybridBTree with a synchronous merge: one writer
//           whose insert crosses the merge threshold mid-run, one reader
//           asserting per-key linearizability (a key inserted before the run
//           must never disappear). The drain's epoch handoff waits out the
//           reader's pin under the scheduler (race::SpinWait). The per-step
//           callback asserts the snapshot version never goes backwards; the
//           run ends with the index's quiescent Validate.
//   epoch   The publish-then-retire protocol on an EpochDomain with
//           freed-bit objects: readers pin, load, deref; the publisher swaps
//           and retires. With --inject the publisher retires the object
//           BEFORE unpublishing it (the classic ordering bug); bounded
//           exploration finds a schedule where a reader dereferences freed
//           memory and prints the replayable trace.
//   wal     Two writers appending to one LsmWal under a harness mutex plus
//           a group-sync thread; afterwards the log is replayed and the
//           record count checked against what the writers appended.
//   olc     Two OLC writers splitting a tiny-node OlcBTree's root leaf while
//           an optimistic reader validates committed keys; a small restart
//           budget makes kRetry reachable, and the final check proves every
//           recorded outcome (kInserted/kRemoved/kRetry) matches the tree's
//           exact final state.
//
// Exit codes: 0 = explored clean, 2 = violation found (trace printed),
// 1 = usage / setup error.
//
// Usage:
//   model_check --workload=hybrid|epoch|wal|olc [--bound=2] [--max-exec=200000]
//               [--random=N --seed=S] [--replay=0,1,0,...] [--inject]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "btree/olc_btree.h"
#include "common/index_api.h"
#include "common/sync.h"
#include "hybrid/epoch.h"
#include "hybrid/olc_hybrid.h"
#include "io/io.h"
#include "lsm/wal.h"
#include "obs/obs.h"
#include "race/sched.h"

namespace {

using met::race::ExploreExhaustive;
using met::race::ExploreRandom;
using met::race::ExploreResult;
using met::race::RunResult;
using met::race::Scheduler;
using met::race::SchedulerOptions;
using met::race::Trace;

struct Cli {
  std::string workload;
  int bound = 2;
  uint64_t max_exec = 200000;
  uint64_t random_runs = 0;  // 0 = exhaustive
  uint64_t seed = 1;
  bool inject = false;
  std::string replay;  // non-empty = replay this trace instead of exploring
};

bool ParseCli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&a](const char* key) -> const char* {
      size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--workload=")) {
      cli->workload = v;
    } else if (const char* v = val("--bound=")) {
      cli->bound = std::atoi(v);
    } else if (const char* v = val("--max-exec=")) {
      cli->max_exec = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--random=")) {
      cli->random_runs = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seed=")) {
      cli->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--replay=")) {
      cli->replay = v;
    } else if (a == "--inject") {
      cli->inject = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (cli->workload.empty()) {
    std::fprintf(stderr,
                 "usage: model_check --workload=hybrid|epoch|wal|olc "
                 "[--bound=N] [--max-exec=N] [--random=N --seed=S] "
                 "[--replay=trace] [--inject]\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// hybrid: freeze/drain/publish on the real index
// ---------------------------------------------------------------------------

using Index = met::OlcConcurrentHybridBTree<uint64_t>;

met::ConcurrentHybridConfig HybridConfig() {
  met::ConcurrentHybridConfig cfg;
  cfg.background_merge = false;  // drain synchronously => schedulable
  cfg.constant_trigger = true;
  cfg.constant_threshold = 2;  // writer's 2nd insert freezes + drains
  cfg.min_merge_entries = 1;
  cfg.unique = false;  // the served configuration
  return cfg;
}

struct HybridWorkload {
  std::unique_ptr<Index> index;
  uint64_t last_version = 0;

  // An execution abandoned mid-merge (a reported violation) leaves the merge
  // claim set, and the index's destructor would wait for that merge
  // forever: leak it instead.
  ~HybridWorkload() {
    if (index != nullptr && index->MergeInFlight()) (void)index.release();
  }

  std::vector<Scheduler::ThreadFn> MakeThreads() {
    index = std::make_unique<Index>(HybridConfig());
    last_version = 0;
    // Pre-populate OUTSIDE the scheduler: keys 1..3 are committed state the
    // reader may assert on.
    for (uint64_t k = 1; k <= 3; ++k) index->Insert(k * 10, k);
    index->Merge();  // push them into the static stage

    Index* idx = index.get();
    return {
        // Writer: crosses the merge threshold, so this thread runs
        // freeze -> drain -> publish with yield points throughout.
        [idx] {
          idx->Insert(100, 100);
          idx->Insert(101, 101);  // trigger: freeze+drain+publish inline
        },
        // Reader: pre-merge keys must stay visible through every
        // interleaving of the writer's merge.
        [idx] {
          for (int round = 0; round < 2; ++round) {
            for (uint64_t k = 1; k <= 3; ++k) {
              uint64_t v = 0;
              if (!idx->Lookup(k * 10, &v))
                met::race::Fail("hybrid: key %" PRIu64
                                " vanished during merge (round %d)",
                                k * 10, round);
              if (v != k)
                met::race::Fail("hybrid: key %" PRIu64 " read %" PRIu64
                                ", want %" PRIu64,
                                k * 10, v, k);
            }
          }
        },
    };
  }

  // Runs on the orchestrating thread with every virtual thread parked at a
  // yield boundary: snapshot pointer sane, version never goes backwards.
  void StepCheck() {
    const auto* idx = index.get();
    if (idx == nullptr) return;
    uint64_t version = idx->SnapshotVersion();
    if (version < last_version)
      throw met::race::FailureError{"hybrid: snapshot version went backwards"};
    last_version = version;
  }

  // After the threads joined (quiescent): the index's state machine.
  void FinalCheck() {
    index->WaitForMergeIdle();
    std::ostringstream os;
    if (!index->Validate(os))
      throw met::race::FailureError{"hybrid: Validate failed:\n" + os.str()};
    uint64_t v = 0;
    for (uint64_t k = 1; k <= 3; ++k)
      if (!index->Lookup(k * 10, &v) || v != k)
        throw met::race::FailureError{"hybrid: committed key lost at exit"};
    if (!index->Lookup(100, &v) || v != 100 || !index->Lookup(101, &v) ||
        v != 101)
      throw met::race::FailureError{"hybrid: writer's keys lost at exit"};
  }
};

// ---------------------------------------------------------------------------
// epoch: publish-then-retire vs the injected retire-then-publish bug
// ---------------------------------------------------------------------------

struct EpochObject {
  uint64_t payload = 0;
  bool freed = false;
};

struct EpochWorkload {
  bool inject = false;

  std::unique_ptr<met::hybrid::EpochDomain> domain;
  std::unique_ptr<met::sync::Atomic<const EpochObject*>> published;
  // Own every object ever published; "freeing" sets the freed bit so a
  // use-after-free is detectable instead of UB.
  std::vector<std::unique_ptr<EpochObject>> objects;

  std::vector<Scheduler::ThreadFn> MakeThreads() {
    domain = std::make_unique<met::hybrid::EpochDomain>();
    objects.clear();
    objects.push_back(std::make_unique<EpochObject>());
    objects.back()->payload = 1;
    published = std::make_unique<met::sync::Atomic<const EpochObject*>>(
        objects.back().get());

    auto* dom = domain.get();
    auto* pub = published.get();
    EpochObject* next = [this] {
      objects.push_back(std::make_unique<EpochObject>());
      objects.back()->payload = 2;
      return objects.back().get();
    }();
    bool broken = inject;

    return {
        // Publisher: swap the published object and retire the old one.
        [dom, pub, next, broken] {
          const EpochObject* old = pub->load();
          if (broken) {
            // BUG under test: retire before unpublish. A reader that pins
            // after this retire can still load `old` and dereference it
            // after reclamation.
            dom->Retire([dom_old = old] {
              const_cast<EpochObject*>(dom_old)->freed = true;
            });
            pub->store(next);
          } else {
            pub->store(next);
            dom->Retire([dom_old = old] {
              const_cast<EpochObject*>(dom_old)->freed = true;
            });
          }
          dom->TryReclaim();
        },
        // Reader: pin, load, dereference, unpin — the EBR contract. The
        // explicit yield between load and dereference models real readers,
        // which use the pointer for an arbitrary stretch of pinned time.
        [dom, pub] {
          met::hybrid::EpochGuard g(*dom);
          const EpochObject* o = pub->load();
          met::race::YieldPoint("epoch.use");
          if (o->freed)
            met::race::Fail(
                "epoch: dereferenced a reclaimed object (payload %" PRIu64 ")",
                o->payload);
          if (o->payload != 1 && o->payload != 2)
            met::race::Fail("epoch: torn payload %" PRIu64, o->payload);
        },
        // Second reader doubles the pin/unpin interleavings.
        [dom, pub] {
          met::hybrid::EpochGuard g(*dom);
          const EpochObject* o = pub->load();
          met::race::YieldPoint("epoch.use");
          if (o->freed) met::race::Fail("epoch: reader2 hit freed object");
        },
    };
  }

  void FinalCheck() {
    std::ostringstream os;
    if (!domain->Validate(os))
      throw met::race::FailureError{"epoch: domain invariants failed:\n" +
                                    os.str()};
  }
};

// ---------------------------------------------------------------------------
// olc: optimistic lock coupling — a leaf split racing optimistic readers
// ---------------------------------------------------------------------------

// 96-byte nodes floor out at 4 leaf slots, so with three keys pre-loaded the
// writers' inserts fill and then split the root leaf inside the explored
// region. Every version-word action is a sync::Atomic access, i.e. a
// scheduling decision, so the exploration drives the full OLC protocol:
// optimistic descents validating against in-flight splits, upgrade CAS
// races between the writers, and restart-budget exhaustion (the tiny budget
// makes kRetry reachable; a kRetry op must leave the tree unchanged).
using OlcIndex = met::OlcBTree<uint64_t, 96>;

struct OlcWorkload {
  std::unique_ptr<OlcIndex> index;
  met::MutateOutcome w1_a{}, w1_b{}, w2_ins{}, w2_del{};

  std::vector<Scheduler::ThreadFn> MakeThreads() {
    index = std::make_unique<OlcIndex>(/*restart_budget=*/8);
    // Pre-populate OUTSIDE the scheduler: committed state the reader may
    // assert on, filling 3 of the root leaf's 4 slots.
    for (uint64_t k = 1; k <= 3; ++k)
      if (index->InsertUnique(k * 10, k) != met::MutateOutcome::kInserted)
        throw met::race::FailureError{"olc: prepopulate failed"};
    auto* idx = index.get();
    return {
        // Writer 1: the second insert overflows the root leaf and splits it.
        [idx, this] {
          w1_a = idx->InsertUnique(40, 4);
          w1_b = idx->InsertUnique(50, 5);
        },
        // Writer 2: insert-then-remove on its own key; races writer 1 for
        // the same leaf locks during the split window.
        [idx, this] {
          w2_ins = idx->InsertUnique(60, 6);
          w2_del = w2_ins == met::MutateOutcome::kInserted
                       ? idx->Remove(60)
                       : met::MutateOutcome::kNotFound;
        },
        // Reader: committed keys must stay visible (with their exact
        // values) through every interleaving of the splits. TryLookup is
        // the budgeted flavor; exhaustion (nullopt) is legal under
        // sustained writer interference, a wrong answer never is.
        [idx] {
          for (int round = 0; round < 2; ++round) {
            for (uint64_t k = 1; k <= 3; ++k) {
              uint64_t v = 0;
              std::optional<bool> found = idx->TryLookup(k * 10, &v);
              if (!found.has_value()) continue;  // budget ran dry
              if (!*found)
                met::race::Fail("olc: key %" PRIu64
                                " vanished during split (round %d)",
                                k * 10, round);
              if (v != k)
                met::race::Fail("olc: key %" PRIu64 " read %" PRIu64
                                ", want %" PRIu64,
                                k * 10, v, k);
            }
          }
        },
    };
  }

  void FinalCheck() {
    std::ostringstream os;
    if (!index->Validate(os))
      throw met::race::FailureError{"olc: Validate failed:\n" + os.str()};
    uint64_t v = 0;
    for (uint64_t k = 1; k <= 3; ++k)
      if (!index->Lookup(k * 10, &v) || v != k)
        throw met::race::FailureError{"olc: committed key lost at exit"};
    // Each recorded outcome must match the final state exactly: kInserted
    // keys present (with their values), kRetry ops applied nothing.
    auto check_insert = [&](met::MutateOutcome o, uint64_t key, uint64_t want,
                            bool present_now) {
      if (o == met::MutateOutcome::kInserted) {
        if (!present_now)
          throw met::race::FailureError{"olc: acked insert lost at exit"};
        return;
      }
      if (o != met::MutateOutcome::kRetry)
        throw met::race::FailureError{"olc: unexpected insert outcome " +
                                      std::string(MutateOutcomeName(o))};
      if (present_now)
        throw met::race::FailureError{
            "olc: kRetry insert left the key behind"};
      (void)key;
      (void)want;
    };
    bool p40 = index->Lookup(40, &v);
    if (p40 && v != 4)
      throw met::race::FailureError{"olc: key 40 has a torn value"};
    check_insert(w1_a, 40, 4, p40);
    bool p50 = index->Lookup(50, &v);
    if (p50 && v != 5)
      throw met::race::FailureError{"olc: key 50 has a torn value"};
    check_insert(w1_b, 50, 5, p50);
    bool p60 = index->Lookup(60, &v);
    bool want60 = w2_ins == met::MutateOutcome::kInserted &&
                  w2_del != met::MutateOutcome::kRemoved;
    if (p60 != want60)
      throw met::race::FailureError{
          "olc: key 60 state diverges from its insert/remove outcomes"};
    size_t want_size = 3 + (p40 ? 1 : 0) + (p50 ? 1 : 0) + (p60 ? 1 : 0);
    if (index->size() != want_size)
      throw met::race::FailureError{
          "olc: size() " + std::to_string(index->size()) + " != expected " +
          std::to_string(want_size)};
  }
};

// ---------------------------------------------------------------------------
// wal: group commit under a harness mutex, replay-count oracle
// ---------------------------------------------------------------------------

struct WalWorkload {
  std::string dir;
  int execution = 0;

  std::unique_ptr<met::LsmWal> wal;
  std::unique_ptr<met::sync::Mutex> mu;
  int appended = 0;  // guarded by *mu

  std::vector<Scheduler::ThreadFn> MakeThreads() {
    std::string path = dir + "/model_check_wal_" + std::to_string(execution++);
    auto& env = met::io::Env::Posix();
    (void)env.Remove(path);  // stale file from an aborted earlier run
    wal = std::make_unique<met::LsmWal>(env, path);
    met::io::Status s = wal->Open();
    if (!s.ok()) throw met::race::FailureError{"wal open: " + s.ToString()};
    mu = std::make_unique<met::sync::Mutex>();
    appended = 0;

    auto* w = wal.get();
    auto* m = mu.get();
    int* count = &appended;
    auto writer = [w, m, count](const char* key) {
      return [w, m, count, key] {
        for (int i = 0; i < 2; ++i) {
          met::sync::MutexLock l(*m);
          std::string k = std::string(key) + std::to_string(i);
          met::io::Status s = w->Append(k, "v");
          if (!s.ok())
            met::race::Fail("wal append failed: %s", s.ToString().c_str());
          ++*count;
        }
      };
    };
    return {
        writer("a"),
        writer("b"),
        // Group-sync thread: acks whatever has been appended so far.
        [w, m] {
          met::sync::MutexLock l(*m);
          met::io::Status s = w->Sync();
          if (!s.ok())
            met::race::Fail("wal sync failed: %s", s.ToString().c_str());
        },
    };
  }

  void FinalCheck() {
    met::io::Status s = wal->Sync();
    if (!s.ok()) throw met::race::FailureError{"wal final sync failed"};
    std::string path = wal->path();
    s = wal->Close();
    if (!s.ok()) throw met::race::FailureError{"wal close failed"};
    uint64_t replayed = 0;
    bool torn = false;
    s = met::LsmWal::Replay(
        met::io::Env::Posix(), path, [](std::string_view, std::string_view) {},
        &replayed, &torn);
    if (!s.ok()) throw met::race::FailureError{"wal replay failed"};
    if (torn) throw met::race::FailureError{"wal replay saw a torn tail"};
    if (replayed != static_cast<uint64_t>(appended))
      throw met::race::FailureError{
          "wal replay count " + std::to_string(replayed) + " != appended " +
          std::to_string(appended)};
    (void)met::io::Env::Posix().Remove(path);  // scratch file cleanup
  }
};

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

void PrintFailure(const std::string& failure, const Trace& trace,
                  const Cli& cli) {
  std::fprintf(stderr, "VIOLATION: %s\n", failure.c_str());
  std::fprintf(stderr, "schedule:  %s\n", trace.ToString().c_str());
  std::fprintf(stderr,
               "replay:    model_check --workload=%s --bound=%d%s "
               "--replay=%s\n",
               cli.workload.c_str(), cli.bound, cli.inject ? " --inject" : "",
               trace.ToString().c_str());
}

template <typename Workload>
int Drive(Workload* w, const Cli& cli,
          const std::function<void()>& step_check) {
  SchedulerOptions opts;
  opts.preemption_bound = cli.bound;

  auto make = [w] { return w->MakeThreads(); };
  // Runs quiescent after each execution; FailureError here fails the
  // execution with its (replayable) trace attached.
  auto post = [w] { w->FinalCheck(); };

  if (!cli.replay.empty()) {
    Trace trace;
    if (!Trace::FromString(cli.replay, &trace)) {
      std::fprintf(stderr, "bad --replay trace\n");
      return 1;
    }
    RunResult r = met::race::Replay(make, trace, opts, step_check, post);
    if (r.failed) {
      PrintFailure(r.failure, r.trace, cli);
      return 2;
    }
    std::printf("replay: %d decisions, no violation\n", r.steps);
    return 0;
  }

  ExploreResult res =
      cli.random_runs > 0
          ? ExploreRandom(make, opts, cli.random_runs, cli.seed, step_check,
                          post)
          : ExploreExhaustive(make, opts, cli.max_exec, step_check, post);
  if (res.failed) {
    PrintFailure(res.failure, res.failing_trace, cli);
    std::fprintf(stderr, "after %" PRIu64 " executions\n", res.executions);
    return 2;
  }

  std::printf(
      "%s: %" PRIu64 " executions, %" PRIu64
      " decisions, preemption bound %d, %s — no violations\n",
      cli.workload.c_str(), res.executions, res.decisions, cli.bound,
      res.complete ? "complete" : "budget-capped");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!ParseCli(argc, argv, &cli)) return 1;

  // Warm up lazily-initialized globals (obs singletons, metric registration)
  // OUTSIDE the scheduler: a first-touch inside an explored region would
  // make executions non-deterministic across the DFS.
  met::obs::WarmUp();
  (void)met::OlcHybridObsMetrics::Get();

  if (cli.workload == "hybrid") {
    HybridWorkload w;
    {  // also warm the index's own statics (LsmObsMetrics etc.)
      auto warm = w.MakeThreads();
      for (auto& fn : warm) fn();
      w.FinalCheck();
    }
    return Drive(&w, cli, [&w] { w.StepCheck(); });
  }
  if (cli.workload == "epoch") {
    EpochWorkload w;
    w.inject = cli.inject;
    {
      auto warm = w.MakeThreads();
      for (auto& fn : warm) fn();
    }
    return Drive(&w, cli, nullptr);
  }
  if (cli.workload == "olc") {
    OlcWorkload w;
    {  // warm run outside the scheduler, same as the other workloads
      auto warm = w.MakeThreads();
      for (auto& fn : warm) fn();
      w.FinalCheck();
    }
    return Drive(&w, cli, nullptr);
  }
  if (cli.workload == "wal") {
    WalWorkload w;
    const char* tmp = std::getenv("TMPDIR");
    w.dir = tmp != nullptr ? tmp : "/tmp";
    {
      auto warm = w.MakeThreads();
      for (auto& fn : warm) fn();
      w.FinalCheck();
    }
    return Drive(&w, cli, nullptr);
  }
  std::fprintf(stderr, "unknown workload: %s\n", cli.workload.c_str());
  return 1;
}
