// met::race — deterministic schedule exploration tests, plus the pinned
// regression tests for the two real guarding gaps the thread-safety
// annotation pass surfaced (obs registry Find-vs-Get, LsmStats dump reads).
//
// This file is in the TSan CI shard (ctest -R '...|race'): the regression
// tests at the bottom run real threads so TSan re-checks the fixes on every
// sanitizer build.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "hybrid/epoch.h"
#include "hybrid/olc_hybrid.h"
#include "lsm/lsm.h"
#include "obs/obs.h"
#include "race/sched.h"

namespace {

using met::race::ExploreExhaustive;
using met::race::ExploreResult;
using met::race::FailureError;
using met::race::Replay;
using met::race::RunResult;
using met::race::Scheduler;
using met::race::SchedulerOptions;
using met::race::Trace;

// ---------------------------------------------------------------------------
// Scheduler semantics
// ---------------------------------------------------------------------------

// A modeled sync::Mutex really provides mutual exclusion under every
// explored schedule: two threads increment a plain int under the lock, and
// no interleaving loses an update.
TEST(RaceSched, ModeledMutexExclusion) {
  met::obs::WarmUp();
  SchedulerOptions opts;
  opts.preemption_bound = -1;  // unbounded: the space is tiny

  auto mu = std::make_shared<met::sync::Mutex>();
  auto counter = std::make_shared<int>(0);
  auto make = [mu, counter] {
    *counter = 0;
    auto work = [mu, counter] {
      for (int i = 0; i < 2; ++i) {
        met::sync::MutexLock l(*mu);
        // Plain (non-yielding) RMW: exclusivity comes from the modeled lock.
        *counter = *counter + 1;
      }
    };
    return std::vector<Scheduler::ThreadFn>{work, work};
  };
  auto post = [counter] {
    if (*counter != 4)
      throw FailureError{"lost update under modeled mutex: " +
                         std::to_string(*counter)};
  };

  ExploreResult res = ExploreExhaustive(make, opts, 100000, nullptr, post);
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.failed) << res.failure;
  EXPECT_GT(res.executions, 1u);  // lock/unlock yields create real branching
}

// An UNPROTECTED read-modify-write over sync::Atomic is a racy increment;
// bounded exploration must find the lost update, and the recorded trace
// must replay to the identical failure.
TEST(RaceSched, LostUpdateFoundAndReplays) {
  met::obs::WarmUp();
  SchedulerOptions opts;
  opts.preemption_bound = 2;

  auto counter = std::make_shared<met::sync::Atomic<int>>(0);
  auto make = [counter] {
    counter->store(0);
    auto work = [counter] {
      int v = counter->load();  // yield point before each atomic op
      counter->store(v + 1);
    };
    return std::vector<Scheduler::ThreadFn>{work, work};
  };
  auto post = [counter] {
    if (counter->load() != 2)
      throw FailureError{"lost update: " + std::to_string(counter->load())};
  };

  ExploreResult res = ExploreExhaustive(make, opts, 100000, nullptr, post);
  ASSERT_TRUE(res.failed) << "exploration missed the textbook lost update";
  EXPECT_NE(res.failure.find("lost update"), std::string::npos) << res.failure;

  // Deterministic replay: the same trace reproduces the same violation.
  RunResult replay1 = Replay(make, res.failing_trace, opts, nullptr, post);
  RunResult replay2 = Replay(make, res.failing_trace, opts, nullptr, post);
  ASSERT_TRUE(replay1.failed);
  ASSERT_TRUE(replay2.failed);
  EXPECT_EQ(replay1.failure, res.failure);
  EXPECT_EQ(replay2.failure, res.failure);
  EXPECT_EQ(replay1.trace.ToString(), replay2.trace.ToString());

  // Trace round-trips through its text form (the CI-artifact format).
  Trace parsed;
  ASSERT_TRUE(Trace::FromString(res.failing_trace.ToString(), &parsed));
  EXPECT_EQ(parsed.choices, res.failing_trace.choices);
}

// A spin-wait through race::SpinWait parks the spinner until another thread
// steps, so even the non-preemptive tail (which keeps the running thread)
// hands control to the thread that can satisfy the wait instead of burning
// the step budget. A spin nobody can satisfy still fails (as a livelock).
TEST(RaceSched, SpinWaitYieldsToTheOtherThread) {
  met::obs::WarmUp();
  SchedulerOptions opts;
  opts.preemption_bound = 2;

  auto flag = std::make_shared<met::sync::Atomic<int>>(0);
  auto make = [flag] {
    flag->store(0);
    return std::vector<Scheduler::ThreadFn>{
        [flag] {
          while (flag->load() == 0) met::race::SpinWait("test.spin");
        },
        [flag] { flag->store(1); },
    };
  };
  ExploreResult res = ExploreExhaustive(make, opts, 100000);
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.failed) << res.failure;

  auto stuck = [flag] {
    flag->store(0);
    return std::vector<Scheduler::ThreadFn>{[flag] {
      while (flag->load() == 0) met::race::SpinWait("test.spin");
    }};
  };
  res = ExploreExhaustive(stuck, opts, 100000);
  ASSERT_TRUE(res.failed);
  EXPECT_NE(res.failure.find("step budget"), std::string::npos) << res.failure;
}

// Lock-order inversion over modeled mutexes deadlocks under some schedule;
// the report names every blocked thread and where it blocked.
TEST(RaceSched, DeadlockReportNamesBlockedThreads) {
  met::obs::WarmUp();
  SchedulerOptions opts;
  opts.preemption_bound = 2;

  auto a = std::make_shared<met::sync::Mutex>();
  auto b = std::make_shared<met::sync::Mutex>();
  auto make = [a, b] {
    return std::vector<Scheduler::ThreadFn>{
        [a, b] {
          met::sync::MutexLock la(*a);
          met::sync::MutexLock lb(*b);
        },
        [a, b] {
          met::sync::MutexLock lb(*b);
          met::sync::MutexLock la(*a);
        },
    };
  };
  ExploreResult res = ExploreExhaustive(make, opts, 100000);
  ASSERT_TRUE(res.failed);
  EXPECT_NE(res.failure.find("deadlock"), std::string::npos) << res.failure;
  EXPECT_NE(res.failure.find("t0 blocked at"), std::string::npos)
      << res.failure;
  EXPECT_NE(res.failure.find("t1 blocked at"), std::string::npos)
      << res.failure;
}

// ---------------------------------------------------------------------------
// The serving path under the scheduler
// ---------------------------------------------------------------------------

met::ConcurrentHybridConfig SmallMergeConfig() {
  met::ConcurrentHybridConfig cfg;
  cfg.background_merge = false;  // synchronous drain => deterministic
  cfg.constant_trigger = true;
  cfg.constant_threshold = 2;
  cfg.min_merge_entries = 1;
  return cfg;
}

// Bounded-exhaustive 2-thread freeze/handoff/drain/publish on the served
// concurrent index: a key committed before the merge stays visible at every
// interleaving, the drain's epoch handoff waits out the reader's pin, and
// the index validator holds at quiescence.
TEST(RaceSched, FreezePublishExhaustive) {
  met::obs::WarmUp();
  (void)met::OlcHybridObsMetrics::Get();

  SchedulerOptions opts;
  opts.preemption_bound = 2;

  using Index = met::OlcConcurrentHybridBTree<uint64_t>;
  auto index = std::make_shared<std::unique_ptr<Index>>();
  auto make = [index] {
    *index = std::make_unique<Index>(SmallMergeConfig());
    (*index)->Insert(7, 70);  // committed pre-merge state
    (*index)->Merge();
    auto* idx = index->get();
    return std::vector<Scheduler::ThreadFn>{
        [idx] {
          idx->Insert(1, 10);
          idx->Insert(2, 20);  // crosses threshold: freeze+drain+publish
        },
        [idx] {
          uint64_t v = 0;
          if (!idx->Lookup(7, &v) || v != 70)
            met::race::Fail("key 7 lost during merge");
        },
    };
  };
  auto post = [index] {
    auto* idx = index->get();
    idx->WaitForMergeIdle();
    std::ostringstream os;
    if (!idx->Validate(os))
      throw FailureError{"Validate failed at quiescence: " + os.str()};
    uint64_t v = 0;
    for (uint64_t k : {uint64_t{7}, uint64_t{1}, uint64_t{2}})
      if (!idx->Lookup(k))
        throw FailureError{"key " + std::to_string(k) + " lost at quiescence"};
    (void)v;
  };

  ExploreResult res = ExploreExhaustive(make, opts, 200000, nullptr, post);
  // An execution abandoned mid-merge leaves the merge claim set, and the
  // index's destructor would wait for that merge forever: leak it instead.
  if (res.failed && (*index)->MergeInFlight()) (void)index->release();
  EXPECT_TRUE(res.complete) << "schedule space not exhausted within budget";
  EXPECT_FALSE(res.failed)
      << res.failure << "\ntrace: " << res.failing_trace.ToString();
  EXPECT_GT(res.executions, 100u);
}

// Seeded injection: retiring the old epoch-published object BEFORE
// unpublishing it must be caught, with a trace that replays to the same
// violation (the model_check CI job depends on this failing loudly).
TEST(RaceSched, EpochRetireBeforeUnpublishCaught) {
  met::obs::WarmUp();
  SchedulerOptions opts;
  opts.preemption_bound = 2;

  struct Obj {
    bool freed = false;
  };
  struct State {
    met::hybrid::EpochDomain domain;
    Obj objs[2];
    met::sync::Atomic<const Obj*> published{nullptr};
  };
  auto st = std::make_shared<std::unique_ptr<State>>();

  auto make_with = [st](bool broken) {
    return [st, broken] {
      *st = std::make_unique<State>();
      State* s = st->get();
      s->published.store(&s->objs[0]);
      return std::vector<Scheduler::ThreadFn>{
          [s, broken] {
            const Obj* old = s->published.load();
            if (broken) {
              s->domain.Retire(
                  [old] { const_cast<Obj*>(old)->freed = true; });
              s->domain.TryReclaim();
              s->published.store(&s->objs[1]);
            } else {
              s->published.store(&s->objs[1]);
              s->domain.Retire(
                  [old] { const_cast<Obj*>(old)->freed = true; });
              s->domain.TryReclaim();
            }
          },
          [s] {
            met::hybrid::EpochGuard g(s->domain);
            const Obj* o = s->published.load();
            met::race::YieldPoint("epoch.use");
            if (o->freed) met::race::Fail("dereferenced reclaimed object");
          },
      };
    };
  };

  ExploreResult clean =
      ExploreExhaustive(make_with(false), opts, 200000);
  EXPECT_TRUE(clean.complete);
  EXPECT_FALSE(clean.failed) << clean.failure;

  ExploreResult broken =
      ExploreExhaustive(make_with(true), opts, 200000);
  ASSERT_TRUE(broken.failed)
      << "retire-before-unpublish escaped bounded exploration";
  EXPECT_NE(broken.failure.find("reclaimed"), std::string::npos);

  RunResult replay = Replay(make_with(true), broken.failing_trace, opts);
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.failure, broken.failure);
}

// ---------------------------------------------------------------------------
// Pinned regressions for the guarding gaps the annotation pass surfaced
// (real threads: TSan re-checks these on every sanitizer run)
// ---------------------------------------------------------------------------

// Gap #1: MetricsRegistry::Find* walked the name maps WITHOUT the registry
// mutex while concurrent Get* calls could rehash them. Find* now locks mu_.
TEST(RaceRegression, MetricsRegistryFindDuringGet) {
  auto& reg = met::obs::MetricsRegistry::Global();
  constexpr int kNames = 64;

  std::thread inserter([&reg] {
    for (int round = 0; round < 50; ++round)
      for (int i = 0; i < kNames; ++i)
        reg.GetCounter("race.regression.c" + std::to_string(round * kNames +
                                                            i))
            ->Add(1);
  });
  std::thread finder([&reg] {
    for (int round = 0; round < 50; ++round)
      for (int i = 0; i < kNames; ++i) {
        // Mix of hits and misses; the walk must be safe against concurrent
        // map growth either way.
        (void)reg.FindCounter("race.regression.c" + std::to_string(i));
        (void)reg.FindGauge("race.regression.never");
        (void)reg.FindHistogram("race.regression.never");
      }
  });
  inserter.join();
  finder.join();

  EXPECT_NE(reg.FindCounter("race.regression.c0"), nullptr);
}

// Gap #2: LsmTree::SyncObsCounters() runs on whatever thread triggers a
// registry dump while the owning thread mutates stats_. The counter fields
// are now tear-free RelaxedCounter and the synced watermarks are mutex'd,
// so a dump storm concurrent with a write/read workload must be clean.
TEST(RaceRegression, LsmStatsDumpDuringWrites) {
  met::LsmOptions opts;
  opts.dir = ::testing::TempDir() + "race_lsm_dump";
  opts.memtable_bytes = 16u << 10;  // small: force flushes => stats churn
  opts.filter = met::LsmFilterType::kBloom;
  met::LsmTree tree(opts);

  std::atomic<bool> stop{false};
  std::thread dumper([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string out;
      met::obs::MetricsRegistry::Global().DumpJson(&out);  // runs collectors
      EXPECT_FALSE(out.empty());
    }
  });

  for (int i = 0; i < 4000; ++i) {
    // Two-step concat: gcc 12's -Wrestrict false-positives on operator+
    // with a string literal here (PR105651).
    std::string key = std::to_string(i);
    key.insert(0, 1, 'k');
    ASSERT_TRUE(tree.Put(key, std::string(64, 'v')).ok());
    if (i % 16 == 0) {
      EXPECT_TRUE(tree.Lookup(key));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  dumper.join();

  EXPECT_TRUE(tree.Lookup("k0"));
  EXPECT_TRUE(tree.Lookup("k3999"));
}

}  // namespace
