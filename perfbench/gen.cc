// perfbench_gen — workload generator, answer oracle and traced in-process
// runner of the serving benchmark. perfbench/run.py drives it; NOTES.md in
// this directory describes the workloads and every metric.
//
//   perfbench_gen setup   --workload W --seed S --port P --server-pid PID
//   perfbench_gen measure --workload W --seed S --seconds T --port P
//                         --server-pid PID [--state F]
//   perfbench_gen verify  --workload W --seed S --port P --state F
//   perfbench_gen traced  --workload W --seed S --seconds T --dir D
//
// setup preloads the whole keyset over the wire (both connections behind a
// barrier) and returns once the merge threads the preload started have left
// the server process. measure runs the closed-loop window, interleaved with
// depth-1 probes of every operation type the workload's mix does not issue,
// and writes to F which of its own keys every connection stored. verify
// re-reads every preloaded key and every acknowledged own key of F after a
// durable restart. traced runs setup + measure against an in-process
// met::serve::Server whose shard engines are wrapped in a timing decorator,
// then replays the workload's keys against a replica
// OlcConcurrentHybridBTree.
//
// Every phase prints one JSON object as the last line of stdout and exits
// non-zero if any answer was wrong.

#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <array>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/index_api.h"
#include "hybrid/olc_hybrid.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using met::serve::Client;
using met::serve::OpCode;
using met::serve::Request;
using met::serve::RespStatus;
using met::serve::Response;

constexpr size_t kConns = 2;   // generator threads, one connection each
constexpr size_t kShards = 2;  // met_server --shards
constexpr uint32_t kMultiGetKeys = 32;
constexpr uint32_t kMaxScanRows = 16;
// The window is cut into slices of kSliceSeconds of the mix, each followed
// by the probes; the end-to-end figures are medians over slices.
constexpr double kSliceSeconds = 0.5;
constexpr size_t kMaxSlices = 128;
// Answers per connection in one probe phase: 2000 per probe, 40000 over a
// 10-s window.
constexpr size_t kProbeAnswers = 1000;
// Bounds one probe phase against a stalled server.
constexpr uint64_t kProbeCapNs = 2000000000;
// A slice in which the hypervisor took more than this share of the VM's
// vCPU time for other guests (steal) measured the neighbours, not the
// program: the window runs more slices to make up for it (see Measure), and
// the medians leave it out (see EmitCommon).
constexpr double kMaxStealFrac = 0.01;
constexpr double kWarmupSeconds = 0.5;
constexpr size_t kPreloadDepth = 256;
constexpr uint32_t kRecvTimeoutMs = 10000;
constexpr useconds_t kRssSampleUs = 20000;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// ---- workloads -------------------------------------------------------------

enum Kind { kGet, kMGet, kPutOld, kPutNew, kDel, kScan, kNumKinds };

struct Workload {
  const char* name;
  uint64_t keys;
  size_t depth;                // outstanding requests per connection
  int mix[kNumKinds];          // percent per Kind
  bool durable;
};

// Mixes in percent: GET, MULTIGET, PUT existing, PUT new, DELETE, SCAN.
const Workload kWorkloads[] = {
    {"serve-small", 100000, 1, {90, 0, 10, 0, 0, 0}, false},
    {"index-large", 8000000, 8, {0, 100, 0, 0, 0, 0}, false},
    {"write-churn", 1000000, 8, {40, 0, 30, 20, 5, 5}, false},
    {"durable-mixed", 1000000, 8, {50, 0, 0, 45, 0, 5}, true},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// ---- keyspace --------------------------------------------------------------
//
// Key i of the workload is Mix(i ^ seed): a bijection of the 64-bit space,
// so keys are distinct and uniform. Indices [0, keys) are preloaded;
// connection t inserts its own fresh keys at indices ((t+1) << 40) | j.
// The value of key k is Mix'(k), a second bijection, so every value a SCAN
// returns decodes back to the key it belongs to.

uint64_t ModInverse(uint64_t a) {
  uint64_t x = a;  // a*a == 1 mod 8 for odd a: 3 correct bits to start
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

uint64_t UnXorShift(uint64_t y, int s) {
  uint64_t x = y;
  for (int i = 0; i < 64 / s + 1; ++i) x = y ^ (x >> s);
  return x;
}

struct Bijection {
  uint64_t c1, c2;
  uint64_t Fwd(uint64_t x) const {
    x ^= x >> 31;
    x *= c1;
    x ^= x >> 29;
    x *= c2;
    x ^= x >> 32;
    return x;
  }
  uint64_t Inv(uint64_t x) const {
    x = UnXorShift(x, 32);
    x *= ModInverse(c2);
    x = UnXorShift(x, 29);
    x *= ModInverse(c1);
    x = UnXorShift(x, 31);
    return x;
  }
};

constexpr Bijection kKeyMix{0xbf58476d1ce4e5b9ull, 0x94d049bb133111ebull};
constexpr Bijection kValueMix{0xd6e8feb86659fd93ull, 0xa0761d6478bd642full};

struct Keyspace {
  uint64_t seed = 0;
  uint64_t n = 0;

  uint64_t Key(uint64_t index) const { return kKeyMix.Fwd(index ^ seed); }
  uint64_t Index(uint64_t key) const { return kKeyMix.Inv(key) ^ seed; }
  uint64_t OwnIndex(size_t conn, uint64_t j) const {
    return (static_cast<uint64_t>(conn + 1) << 40) | j;
  }
  static uint64_t Value(uint64_t key) { return kValueMix.Fwd(key); }
  static uint64_t KeyOfValue(uint64_t value) { return kValueMix.Inv(value); }
  static size_t Shard(uint64_t key) { return met::MixHash64(key) % kShards; }
};

struct SplitMix {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

/// Preloaded keys of each shard, sorted: the SCAN oracle's ground truth.
struct ShardedKeys {
  std::vector<uint64_t> sorted[kShards];

  explicit ShardedKeys(const Keyspace& ks) {
    for (uint64_t i = 0; i < ks.n; ++i) {
      uint64_t k = ks.Key(i);
      sorted[Keyspace::Shard(k)].push_back(k);
    }
    for (auto& v : sorted) std::sort(v.begin(), v.end());
  }
};

// ---- results ---------------------------------------------------------------

/// Client-side latency samples of the measured window by slice and reported
/// class (GET, MULTIGET, write = PUT and DELETE, SCAN). A slice is one slice
/// of the mix plus the probes that follow it.
struct Latencies {
  static constexpr size_t kClasses = 4;
  using Samples = std::array<std::vector<uint32_t>, kClasses>;
  std::vector<Samples> slice;     // samples per slice and class
  std::vector<uint64_t> ops;      // answers of the mix per slice

  void Resize(size_t slices) {
    slice.resize(slices);
    ops.resize(slices);
  }
  void Add(size_t i, size_t cls, uint64_t nanos) {
    slice[i][cls].push_back(
        static_cast<uint32_t>(std::min<uint64_t>(nanos, UINT32_MAX)));
  }
  /// Every sample of class `cls` in the window.
  std::vector<uint32_t> Pooled(size_t cls) const {
    std::vector<uint32_t> all;
    for (const Samples& s : slice) all.insert(all.end(), s[cls].begin(),
                                              s[cls].end());
    return all;
  }
  uint64_t TotalOps() const {
    uint64_t n = 0;
    for (uint64_t o : ops) n += o;
    return n;
  }
};

size_t LatencySlot(Kind k) {
  switch (k) {
    case kGet: return 0;
    case kMGet: return 1;
    case kPutOld:
    case kPutNew:
    case kDel: return 2;
    case kScan: return 3;
    default: return 0;
  }
}

struct ThreadStats {
  Latencies lat;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t errors = 0;  // kError status, I/O failures and timeouts
  uint64_t cpu_ns = 0;  // generator thread CPU inside the window
  uint64_t send_ns = 0;  // traced: time in Client::Send* + Flush
  uint64_t sends = 0;
  std::string first_problem;
  // traced-mode logs for the replica replay and the protocol micro-timing
  std::vector<std::pair<Kind, uint64_t>> writes;
  std::vector<uint64_t> reads;
  std::vector<Request> req_log;
  std::vector<Response> resp_log;
};

void Note(ThreadStats* st, const std::string& what) {
  if (st->first_problem.empty()) st->first_problem = what;
}

// ---- one connection --------------------------------------------------------

struct Op {
  Kind kind = kGet;
  uint64_t key = 0;
  uint32_t limit = 0;
  bool expect_found = false;
  std::vector<uint64_t> keys;  // MULTIGET
  std::vector<uint64_t> must;  // SCAN: rows that must appear (in key order)
  int64_t own = -1;  // index j of the connection's own key, else -1
  bool pending = false;  // sent, not yet answered
  uint64_t sent_ns = 0;
};

class Conn {
 public:
  Conn(size_t id, const Keyspace& ks, const ShardedKeys* sharded,
       uint64_t rng_seed)
      : id_(id), ks_(ks), sharded_(sharded), rng_{rng_seed} {}

  met::io::Status Connect(uint16_t port) {
    client_.SetRecvTimeout(kRecvTimeoutMs);
    return client_.Connect("127.0.0.1", port);
  }

  uint64_t own_count() const { return own_count_; }
  uint64_t own_live() const { return own_live_count_; }
  /// Own key j is known to be stored: inserted, not deleted since, and
  /// every write to it was acknowledged.
  bool own_acked(uint64_t j) const { return live_[j] != 0 && !uncertain_[j]; }

  bool trace = false;             // time Send* + Flush into ThreadStats
  ThreadStats* log = nullptr;     // when set, keep the frames sent and received
  std::atomic<int64_t>* live_delta = nullptr;  // shared live-key tally

  /// Closed loop: keeps up to `depth` requests outstanding, asking `make`
  /// for the next op (false = no more) and handing each answer to `done`.
  /// False on a broken connection (outstanding ops are counted failed).
  bool Pump(size_t depth, const std::function<bool(Op*)>& make,
            const std::function<void(const Op&, const Response&, uint64_t)>&
                done,
            ThreadStats* st) {
    size_t outstanding = 0;
    bool more = true;
    std::vector<uint32_t> fresh;
    auto refill = [&]() -> bool {
      fresh.clear();
      uint64_t t0 = trace ? NowNs() : 0;
      while (more && outstanding < depth) {
        Op op;
        if (!make(&op)) {
          more = false;
          break;
        }
        uint32_t id = Send(op);
        op.pending = true;
        slots_[id % kSlots] = std::move(op);
        fresh.push_back(id);
        ++outstanding;
      }
      if (fresh.empty()) return true;
      uint64_t now = NowNs();
      for (uint32_t id : fresh) slots_[id % kSlots].sent_ns = now;
      met::io::Status s = client_.Flush();
      if (trace) {
        st->send_ns += NowNs() - t0;
        st->sends += fresh.size();
      }
      if (!s.ok()) {
        Note(st, "flush: " + s.ToString());
        return false;
      }
      return true;
    };
    if (!refill()) return Broken(outstanding, st);
    Response resp;
    while (outstanding > 0) {
      met::io::Status s = client_.Recv(&resp);
      if (!s.ok()) {
        Note(st, (Client::IsTimeout(s) ? "timeout: " : "recv: ") +
                     s.ToString());
        return Broken(outstanding, st);
      }
      for (;;) {
        uint64_t now = NowNs();
        Op& op = slots_[resp.id % kSlots];
        if (log != nullptr && log->resp_log.size() < kLogFrames)
          log->resp_log.push_back(resp);
        op.pending = false;
        done(op, resp, now);
        --outstanding;
        bool have = false;
        s = client_.TryRecv(&resp, &have);
        if (!s.ok()) {
          Note(st, "recv: " + s.ToString());
          return Broken(outstanding, st);
        }
        if (!have) break;
      }
      if (!refill()) return Broken(outstanding, st);
    }
    return true;
  }

  // ---- op generation (send order == per-key execution order) ----

  Op MakeOp(Kind kind) {
    Op op;
    op.kind = kind;
    switch (kind) {
      case kGet: {
        uint64_t r = rng_.Below(ks_.n + own_count_);
        if (r < ks_.n) {
          op.key = ks_.Key(r);
          op.expect_found = true;
        } else {
          uint64_t j = r - ks_.n;
          op.key = ks_.Key(ks_.OwnIndex(id_, j));
          op.own = static_cast<int64_t>(j);
          op.expect_found = live_[j] != 0;
        }
        break;
      }
      case kMGet:
        for (uint32_t i = 0; i < kMultiGetKeys; ++i)
          op.keys.push_back(ks_.Key(rng_.Below(ks_.n)));
        break;
      case kPutOld:
        op.key = ks_.Key(rng_.Below(ks_.n));
        break;
      case kPutNew: {
        uint64_t j = own_count_++;
        op.key = ks_.Key(ks_.OwnIndex(id_, j));
        op.own = static_cast<int64_t>(j);
        live_.push_back(1);
        uncertain_.push_back(0);
        ++own_live_count_;
        if (live_delta != nullptr) live_delta->fetch_add(1);
        own_sorted_[Keyspace::Shard(op.key)].insert(op.key);
        break;
      }
      case kDel: {
        if (own_count_ == 0) return MakeOp(kPutNew);
        uint64_t j = rng_.Below(own_count_);
        op.key = ks_.Key(ks_.OwnIndex(id_, j));
        op.own = static_cast<int64_t>(j);
        op.expect_found = live_[j] != 0;
        if (live_[j] != 0) {
          live_[j] = 0;
          --own_live_count_;
          if (live_delta != nullptr) live_delta->fetch_sub(1);
          own_sorted_[Keyspace::Shard(op.key)].erase(op.key);
        }
        break;
      }
      case kScan: {
        op.key = rng_.Next();
        op.limit = 1 + static_cast<uint32_t>(rng_.Below(kMaxScanRows));
        size_t shard = Keyspace::Shard(op.key);
        // Rows that must come back: the first `limit` preloaded or own live
        // keys of the start key's shard at or after the start key. Other
        // connections' keys may interleave and push some past the limit.
        // Own keys whose write failed may or may not be there.
        const std::vector<uint64_t>& pre = sharded_->sorted[shard];
        auto a = std::lower_bound(pre.begin(), pre.end(), op.key);
        auto b = own_sorted_[shard].lower_bound(op.key);
        while (op.must.size() < op.limit) {
          bool have_a = a != pre.end();
          bool have_b = b != own_sorted_[shard].end();
          if (!have_a && !have_b) break;
          if (have_a && (!have_b || *a < *b)) {
            op.must.push_back(*a++);
          } else if (Uncertain(*b)) {
            ++b;
          } else {
            op.must.push_back(*b++);
          }
        }
        break;
      }
      default:
        break;
    }
    return op;
  }

  Kind PickKind(const int* mix) {
    int r = static_cast<int>(rng_.Below(100));
    for (int k = 0; k < kNumKinds; ++k) {
      if (r < mix[k]) return static_cast<Kind>(k);
      r -= mix[k];
    }
    return kGet;
  }

  // ---- the oracle ----

  /// Checks one answer; returns false (and counts it) when it is wrong or
  /// failed. A write to an own key that was not acknowledged leaves that key
  /// uncertain: later answers may show it either present or absent.
  bool Check(const Op& op, const Response& r, ThreadStats* st) {
    ++st->attempted;
    if (r.status != RespStatus::kOk &&
        !(op.kind == kDel && r.status == RespStatus::kNotFound))
      MarkUncertain(op);
    switch (r.status) {
      case RespStatus::kShed:
        ++st->shed;
        ++st->failed;
        Note(st, "shed");
        return false;
      case RespStatus::kDeadlineExceeded:
        ++st->deadline;
        ++st->failed;
        Note(st, "deadline exceeded");
        return false;
      case RespStatus::kError:
        ++st->errors;
        ++st->failed;
        Note(st, "error status");
        return false;
      default:
        break;
    }
    const bool uncertain = op.own >= 0 && uncertain_[op.own] != 0;
    bool ok = true;
    switch (op.kind) {
      case kGet: {
        bool found = r.status == RespStatus::kOk &&
                     r.value == Keyspace::Value(op.key);
        bool absent = r.status == RespStatus::kNotFound;
        ok = uncertain ? found || absent : op.expect_found ? found : absent;
        break;
      }
      case kPutOld:
      case kPutNew:
        ok = r.status == RespStatus::kOk;
        break;
      case kDel:
        ok = uncertain ? r.status == RespStatus::kOk ||
                             r.status == RespStatus::kNotFound
                       : r.status == (op.expect_found ? RespStatus::kOk
                                                      : RespStatus::kNotFound);
        break;
      case kMGet:
        ok = r.status == RespStatus::kOk && r.multi.size() == op.keys.size();
        for (size_t i = 0; ok && i < op.keys.size(); ++i)
          ok = r.multi[i].found &&
               r.multi[i].value == Keyspace::Value(op.keys[i]);
        break;
      case kScan:
        ok = r.status == RespStatus::kOk && CheckScan(op, r.scan_values);
        break;
      default:
        ok = false;
    }
    if (!ok) {
      ++st->wrong;
      ++st->failed;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "wrong answer: kind=%d key=%016" PRIx64 " status=%d",
                    static_cast<int>(op.kind), op.key,
                    static_cast<int>(r.status));
      Note(st, buf);
    }
    return ok;
  }

  /// The next MULTIGET of the durable check: preloaded keys from `*cursor`
  /// up to `end`, or, with `skip` (sorted), own keys not in it.
  Op NextVerifyBatch(uint64_t* cursor, uint64_t end,
                     const std::vector<uint64_t>* skip) {
    Op op;
    op.kind = kMGet;
    while (*cursor < end && op.keys.size() < met::serve::kMaxMultiGetKeys) {
      uint64_t i = (*cursor)++;
      if (skip == nullptr) {
        op.keys.push_back(ks_.Key(i));
      } else if (!std::binary_search(skip->begin(), skip->end(), i)) {
        op.keys.push_back(ks_.Key(ks_.OwnIndex(id_, i)));
      }
    }
    return op;
  }

 private:
  static constexpr size_t kSlots = 1024;
  static constexpr size_t kLogFrames = 20000;

  uint32_t Send(const Op& op) {
    Request req;
    switch (op.kind) {
      case kGet:
        req.op = OpCode::kGet;
        break;
      case kMGet:
        req.op = OpCode::kMultiGet;
        req.multi_keys = op.keys;
        break;
      case kPutOld:
      case kPutNew:
        req.op = OpCode::kPut;
        req.value = Keyspace::Value(op.key);
        break;
      case kDel:
        req.op = OpCode::kDelete;
        break;
      case kScan:
        req.op = OpCode::kScan;
        req.scan_limit = op.limit;
        break;
      default:
        break;
    }
    req.key = op.key;
    uint32_t id = 0;
    switch (req.op) {
      case OpCode::kGet: id = client_.SendGet(req.key); break;
      case OpCode::kPut: id = client_.SendPut(req.key, req.value); break;
      case OpCode::kDelete: id = client_.SendDelete(req.key); break;
      case OpCode::kScan: id = client_.SendScan(req.key, req.scan_limit); break;
      case OpCode::kMultiGet: id = client_.SendMultiGet(op.keys); break;
    }
    if (log != nullptr && log->req_log.size() < kLogFrames) {
      req.id = id;
      log->req_log.push_back(req);
    }
    return id;
  }

  bool Broken(size_t outstanding, ThreadStats* st) {
    for (Op& op : slots_) {
      if (op.pending) MarkUncertain(op);
      op.pending = false;
    }
    st->attempted += outstanding;
    st->failed += outstanding;
    st->errors += outstanding;
    return false;
  }

  void MarkUncertain(const Op& op) {
    if (op.own >= 0 && op.kind != kGet) uncertain_[op.own] = 1;
  }

  /// `key` is one of this connection's own keys and is uncertain.
  bool Uncertain(uint64_t key) const {
    uint64_t idx = ks_.Index(key);
    if (idx < ks_.n || (idx >> 40) - 1 != id_) return false;
    return uncertain_[idx & ((uint64_t{1} << 40) - 1)] != 0;
  }

  bool CheckScan(const Op& op, const std::vector<uint64_t>& values) const {
    if (values.size() > op.limit) return false;
    size_t shard = Keyspace::Shard(op.key);
    std::vector<uint64_t> rows;
    rows.reserve(values.size());
    for (uint64_t v : values) {
      uint64_t k = Keyspace::KeyOfValue(v);
      if (k < op.key || Keyspace::Shard(k) != shard) return false;
      if (!rows.empty() && k <= rows.back()) return false;  // key order
      uint64_t idx = ks_.Index(k);
      if (idx >= ks_.n) {
        uint64_t conn = (idx >> 40) - 1;
        uint64_t j = idx & ((uint64_t{1} << 40) - 1);
        if (idx < (uint64_t{1} << 40) || conn >= kConns) return false;
        if (conn == id_ && j >= own_count_) return false;
      }
      rows.push_back(k);
    }
    for (uint64_t m : op.must) {
      if (values.size() == op.limit && m > rows.back()) break;
      if (!std::binary_search(rows.begin(), rows.end(), m) && !Uncertain(m))
        return false;
    }
    return true;
  }

  size_t id_;
  const Keyspace& ks_;
  const ShardedKeys* sharded_;
  SplitMix rng_;
  Client client_;
  Op slots_[kSlots];
  uint64_t own_count_ = 0;
  uint64_t own_live_count_ = 0;
  std::vector<uint8_t> live_;
  std::vector<uint8_t> uncertain_;
  std::set<uint64_t> own_sorted_[kShards];
};

// ---- process helpers -------------------------------------------------------

size_t CountTasks(int pid) {
  std::string path = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(path.c_str());
  if (d == nullptr) return 0;
  size_t n = 0;
  while (dirent* e = readdir(d))
    if (e->d_name[0] != '.') ++n;
  closedir(d);
  return n;
}

/// Waits until the process is back to `baseline` threads: every merge
/// thread the preload started has finished.
bool WaitSettled(int pid, size_t baseline) {
  uint64_t give_up = NowNs() + 120ull * 1000000000ull;
  int quiet = 0;
  while (quiet < 3) {
    if (NowNs() > give_up) return false;
    quiet = CountTasks(pid) <= baseline ? quiet + 1 : 0;
    usleep(5000);
  }
  return true;
}

uint64_t ProcField(int pid, const char* file, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + file);
  std::string line;
  size_t len = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, len, field) == 0)
      return std::strtoull(line.c_str() + len, nullptr, 10);
  return 0;
}

/// Machine-wide CPU time from /proc/stat, in clock ticks. `steal` is time
/// the hypervisor gave this VM's vCPUs to other guests while they had work.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the "cpu" line sums every vCPU
  CpuTimes t;
  uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

uint64_t RssBytes(int pid) { return ProcField(pid, "status", "VmRSS:") * 1024; }
uint64_t IoWriteBytes(int pid) { return ProcField(pid, "io", "write_bytes:"); }

double Percentile(std::vector<uint32_t>* v, double p) {
  if (v->empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return static_cast<double>((*v)[rank]) / 1000.0;  // us
}

// ---- JSON output -----------------------------------------------------------

class Json {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    Raw(k, buf);
  }
  void Str(const std::string& k, const std::string& v) {
    std::string esc;
    met::obs::MetricsRegistry::AppendJsonEscaped(&esc, v);
    Raw(k, "\"" + esc + "\"");
  }
  void Raw(const std::string& k, const std::string& v) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string Done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

// ---- phases ----------------------------------------------------------------

struct Args {
  std::string phase, workload;
  uint64_t seed = 1;
  double seconds = 5;
  uint16_t port = 0;
  int server_pid = 0;
  std::string dir;
  std::string state;  // own keys stored by measure, read by verify
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->phase = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--port") {
      a->port = static_cast<uint16_t>(std::atoi(v.c_str()));
    } else if (k == "--server-pid") {
      a->server_pid = std::atoi(v.c_str());
    } else if (k == "--dir") {
      a->dir = v;
    } else if (k == "--state") {
      a->state = v;
    } else {
      return false;
    }
  }
  return true;
}

uint64_t ConnSeed(uint64_t seed, size_t conn, uint64_t phase) {
  SplitMix m{seed * 0x100000001b3ull + conn * 0x9e37 + phase};
  return m.Next();
}

/// Runs fn(conn_index) on kConns threads and joins them.
void OnConns(const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kConns; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

/// Preloads every key, both connections behind one barrier, then waits for
/// the merges it triggered. Returns seconds, or -1 on failure.
double Preload(const Keyspace& ks, uint16_t port, int pid, size_t baseline,
               std::string* problem) {
  std::vector<ThreadStats> stats(kConns);
  uint64_t t0 = NowNs();
  OnConns([&](size_t t) {
    Conn c(t, ks, nullptr, ConnSeed(ks.seed, t, 1));
    if (met::io::Status s = c.Connect(port); !s.ok()) {
      Note(&stats[t], "connect: " + s.ToString());
      ++stats[t].failed;
      return;
    }
    uint64_t next = ks.n * t / kConns, end = ks.n * (t + 1) / kConns;
    std::vector<uint64_t> retry;
    while (next < end || !retry.empty()) {
      std::vector<uint64_t> shed;
      auto make = [&](Op* op) {
        op->kind = kPutOld;
        if (!retry.empty()) {
          op->key = retry.back();
          retry.pop_back();
          return true;
        }
        if (next >= end) return false;
        op->key = ks.Key(next++);
        return true;
      };
      auto done = [&](const Op& op, const Response& r, uint64_t) {
        if (r.status == RespStatus::kShed) {
          shed.push_back(op.key);
        } else if (r.status != RespStatus::kOk) {
          ++stats[t].failed;
          Note(&stats[t], "preload put failed");
        }
      };
      if (!c.Pump(kPreloadDepth, make, done, &stats[t])) return;
      retry.swap(shed);
      if (!retry.empty()) usleep(10000);
    }
  });
  for (const ThreadStats& s : stats) {
    if (s.failed != 0) {
      *problem = "preload: " + s.first_problem;
      return -1;
    }
  }
  if (!WaitSettled(pid, baseline)) {
    *problem = "merges did not settle";
    return -1;
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

struct MeasureResult {
  ThreadStats total;
  double window_s = 0;  // the mix's slices only
  double slice_s = 0;   // one slice of the mix
  size_t wanted_slices = 0;  // clean slices the window aimed for
  std::vector<double> steal_frac;  // per slice: share of vCPU time stolen
  double wall_s = 0;    // the whole window, probes included
  uint64_t own_counts[kConns] = {};
  // Own keys of each connection that the durable check must not expect:
  // deleted, or a write to them was not acknowledged.
  std::vector<uint64_t> own_skip[kConns];
  uint64_t own_live = 0;  // own inserts still live, over all connections
  double bytes_per_key = 0;     // server RSS / live keys after the window
  double rss_mean_per_key = 0;  // server RSS / live keys, time mean
  double client_cpu_frac = 0;
};

/// Hooks the traced run uses to snapshot layer state at the window edges.
struct WindowHooks {
  std::function<void()> at_start;
  std::function<void()> at_end;
};

void Merge(ThreadStats* into, ThreadStats&& s) {
  into->lat.Resize(std::max(into->lat.slice.size(), s.lat.slice.size()));
  for (size_t i = 0; i < s.lat.slice.size(); ++i) {
    for (size_t k = 0; k < Latencies::kClasses; ++k)
      into->lat.slice[i][k].insert(into->lat.slice[i][k].end(),
                                   s.lat.slice[i][k].begin(),
                                   s.lat.slice[i][k].end());
    into->lat.ops[i] += s.lat.ops[i];
  }
  into->attempted += s.attempted;
  into->failed += s.failed;
  into->wrong += s.wrong;
  into->shed += s.shed;
  into->deadline += s.deadline;
  into->errors += s.errors;
  into->cpu_ns += s.cpu_ns;
  into->send_ns += s.send_ns;
  into->sends += s.sends;
  if (into->first_problem.empty()) into->first_problem = s.first_problem;
  into->writes.insert(into->writes.end(), s.writes.begin(), s.writes.end());
  into->reads.insert(into->reads.end(), s.reads.begin(), s.reads.end());
  into->req_log.insert(into->req_log.end(), s.req_log.begin(),
                       s.req_log.end());
  into->resp_log.insert(into->resp_log.end(), s.resp_log.begin(),
                        s.resp_log.end());
}

/// The measured window: `slices` one-second slices of the workload's mix,
/// each followed by a depth-1 probe of every op type the mix does not issue.
/// A probe phase ends after a fixed number of answers per connection, so
/// every probe has the same sample count whatever the op costs. Both
/// connections cross every phase boundary together (a barrier), so probes
/// never overlap the mix. Interleaving spreads the probes over the whole
/// run instead of leaving them to whatever the machine does at its end.
MeasureResult Measure(const Workload& w, const Keyspace& ks,
                      const ShardedKeys& sharded, uint16_t port, int pid,
                      double seconds, bool traced, const WindowHooks& hooks) {
  constexpr size_t kMaxLog = 1u << 20;
  // The traced run measures the mix alone, so its per-layer numbers
  // describe the workload and not the probes.
  std::vector<Kind> probe_kinds;
  if (!traced) {
    if (w.mix[kGet] == 0) probe_kinds.push_back(kGet);
    if (w.mix[kMGet] == 0) probe_kinds.push_back(kMGet);
    if (w.mix[kPutOld] + w.mix[kPutNew] + w.mix[kDel] == 0)
      probe_kinds.push_back(kPutOld);
    if (w.mix[kScan] == 0) probe_kinds.push_back(kScan);
  }
  const size_t slices = std::clamp<size_t>(
      static_cast<size_t>(seconds / kSliceSeconds + 0.5), 1, kMaxSlices);
  const uint64_t slice_ns = static_cast<uint64_t>(seconds * 1e9) / slices;
  // Disturbed slices are made up for with more slices: up to a quarter
  // more, or, while fewer than half of the wanted clean slices have been
  // seen (an episode of host contention), up to half as many again.
  const size_t more_slices = slices + slices / 4,
               max_slices = slices + slices / 2;

  std::vector<ThreadStats> stats(kConns);
  std::vector<uint64_t> own(kConns), own_live(kConns);
  std::vector<std::vector<uint64_t>> own_skip(kConns);
  std::atomic<size_t> ready{0};
  std::atomic<uint64_t> start_ns{0};
  std::atomic<bool> finished{false};
  std::atomic<int64_t> own_live_now{0};
  std::vector<double> rss_per_key;  // untraced runs only
  std::barrier phase(static_cast<std::ptrdiff_t>(kConns));
  // At every slice boundary: the steal of the slice that ended, and whether
  // another slice runs.
  std::vector<double> steal;
  steal.reserve(max_slices);
  CpuTimes mark;
  bool first_mark = true, more = true;
  size_t clean = 0;
  auto at_boundary = [&]() noexcept {
    if (!more) return;  // the window is over; connections are leaving
    CpuTimes now = ReadCpuTimes();
    if (!first_mark) {
      uint64_t total = now.total - mark.total;
      double f = total == 0 ? 0.0
                            : static_cast<double>(now.steal - mark.steal) /
                                  static_cast<double>(total);
      steal.push_back(f);
      if (f <= kMaxStealFrac) ++clean;
    }
    first_mark = false;
    mark = now;
    size_t ran = steal.size();
    more = clean < slices && ran < max_slices &&
           (ran < more_slices || 2 * clean < slices);
  };
  std::barrier gate(static_cast<std::ptrdiff_t>(kConns), at_boundary);

  std::thread edges([&] {
    while (ready.load() < kConns) usleep(200);
    uint64_t start = NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
    start_ns.store(start);
    while (NowNs() < start) usleep(100);
    if (hooks.at_start) hooks.at_start();
    while (!finished.load()) {
      if (!traced && pid > 0) {
        double live = static_cast<double>(ks.n) +
                      static_cast<double>(own_live_now.load());
        rss_per_key.push_back(static_cast<double>(RssBytes(pid)) / live);
      }
      usleep(kRssSampleUs);
    }
    if (hooks.at_end) hooks.at_end();
  });

  OnConns([&](size_t t) {
    ThreadStats& st = stats[t];
    Conn c(t, ks, &sharded, ConnSeed(ks.seed, t, 2));
    c.trace = traced;
    if (traced) c.log = &st;
    c.live_delta = &own_live_now;
    met::io::Status s = c.Connect(port);
    ready.fetch_add(1);
    if (!s.ok()) {
      Note(&st, "connect: " + s.ToString());
      ++st.failed;
      ++st.attempted;
      phase.arrive_and_drop();
      gate.arrive_and_drop();
      return;
    }
    while (start_ns.load() == 0) usleep(50);
    const uint64_t start = start_ns.load();
    st.lat.Resize(max_slices);
    size_t cur = 0;  // the slice answers are recorded into

    // Runs `kind` (kNumKinds = the workload's mix) until `until` or `limit`
    // answers. With `record`, answers completed in [from, until) count;
    // `count_ops` also adds them to the throughput.
    auto run = [&](Kind kind, size_t depth, uint64_t from, uint64_t until,
                   size_t limit, bool record, bool count_ops) {
      size_t issued = 0;
      auto make = [&](Op* op) {
        if (NowNs() >= until || issued == limit) return false;
        ++issued;
        *op = c.MakeOp(kind == kNumKinds ? c.PickKind(w.mix) : kind);
        if (traced) {
          if (op->kind == kMGet) {
            if (st.reads.size() < kMaxLog)
              st.reads.insert(st.reads.end(), op->keys.begin(),
                              op->keys.end());
          } else if (op->kind == kGet) {
            if (st.reads.size() < kMaxLog) st.reads.push_back(op->key);
          } else if (op->kind != kScan && st.writes.size() < kMaxLog) {
            st.writes.emplace_back(op->kind, op->key);
          }
        }
        return true;
      };
      auto done = [&](const Op& op, const Response& r, uint64_t now) {
        if (c.Check(op, r, &st) && record && now >= from && now < until) {
          if (count_ops) ++st.lat.ops[cur];
          st.lat.Add(cur, LatencySlot(op.kind), now - op.sent_ns);
        }
      };
      return c.Pump(depth, make, done, &st);
    };

    auto window = [&]() -> bool {
      // Warm-up: the mix, unrecorded.
      if (!run(kNumKinds, w.depth, 0, start, SIZE_MAX, false, false))
        return false;
      uint64_t cpu0 = ThreadCpuNs();
      for (cur = 0;; ++cur) {
        gate.arrive_and_wait();
        if (!more) break;
        uint64_t from = NowNs();
        if (!run(kNumKinds, w.depth, from, from + slice_ns, SIZE_MAX, true,
                 true))
          return false;
        for (Kind k : probe_kinds) {
          phase.arrive_and_wait();
          if (!run(k, 1, 0, NowNs() + kProbeCapNs, kProbeAnswers, true, false))
            return false;
        }
      }
      st.cpu_ns = ThreadCpuNs() - cpu0;
      return true;
    };
    window();
    // A failed connection must not stall the other.
    phase.arrive_and_drop();
    gate.arrive_and_drop();
    own[t] = c.own_count();
    own_live[t] = c.own_live();
    for (uint64_t j = 0; j < own[t]; ++j)
      if (!c.own_acked(j)) own_skip[t].push_back(j);
  });
  const uint64_t end = NowNs();
  finished.store(true);
  edges.join();
  const double live_end =
      static_cast<double>(ks.n) + static_cast<double>(own_live_now.load());

  MeasureResult res;
  for (size_t t = 0; t < kConns; ++t) {
    res.own_counts[t] = own[t];
    res.own_skip[t] = std::move(own_skip[t]);
    res.own_live += own_live[t];
    Merge(&res.total, std::move(stats[t]));
  }
  res.total.lat.Resize(steal.size());
  res.steal_frac = steal;
  res.window_s = static_cast<double>(steal.size() * slice_ns) / 1e9;
  res.slice_s = static_cast<double>(slice_ns) / 1e9;
  res.wanted_slices = slices;
  res.wall_s = static_cast<double>(end - start_ns.load()) / 1e9;
  // Memory per key moves with the merge cycle: the dynamic stage fills, a
  // merge holds two static stages, and the old one stays until the epoch
  // domain gets to reclaim it, which may take until the next merge. The
  // mean of the samples taken every 20 ms over the window weighs each state
  // by how long it lasted.
  if (!rss_per_key.empty()) {
    double sum = 0;
    for (double v : rss_per_key) sum += v;
    res.rss_mean_per_key = sum / static_cast<double>(rss_per_key.size());
    res.bytes_per_key = static_cast<double>(RssBytes(pid)) / live_end;
  }
  res.client_cpu_frac =
      static_cast<double>(res.total.cpu_ns) / (res.wall_s * 1e9 * kConns);
  return res;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The end-to-end figures are medians over the window's slices of each
/// slice's own figure: every slice counts once, so a burst of host noise
/// that slows fewer than half of them does not move the figure, while a
/// change that slows most of the window does. Slices with more steal than
/// kMaxStealFrac are left out. When a long episode of host contention left
/// fewer than half of the wanted slices clean, the medians use that many of
/// the least disturbed slices instead. Slices are chosen by steal alone,
/// never by how fast they ran.
/// The p99s and window_ops_per_s are taken over the whole window instead,
/// so rare stalls show there.
void EmitCommon(const MeasureResult& m, uint64_t live_keys, Json* j) {
  const Latencies& lat = m.total.lat;
  std::vector<size_t> used(m.steal_frac.size());
  std::iota(used.begin(), used.end(), size_t{0});
  std::stable_sort(used.begin(), used.end(), [&](size_t a, size_t b) {
    return m.steal_frac[a] < m.steal_frac[b];
  });
  double steal_sum = 0;
  size_t clean = 0;
  for (double f : m.steal_frac) {
    steal_sum += f;
    if (f <= kMaxStealFrac) ++clean;
  }
  used.resize(std::min(used.size(),
                       std::max(clean, (m.wanted_slices + 1) / 2)));
  std::vector<double> ops;
  for (size_t i : used)
    ops.push_back(static_cast<double>(lat.ops[i]) / m.slice_s);
  j->Num("ops_per_s", Median(ops));
  j->Num("window_ops_per_s",
         m.window_s > 0 ? static_cast<double>(lat.TotalOps()) / m.window_s
                        : 0.0);
  j->Num("slices", static_cast<double>(lat.slice.size()));
  j->Num("clean_slices", static_cast<double>(clean));
  j->Num("steal_frac",
         m.steal_frac.empty()
             ? 0.0
             : steal_sum / static_cast<double>(m.steal_frac.size()));
  const char* names[] = {"get", "mget", "write", "scan"};
  for (size_t c = 0; c < Latencies::kClasses; ++c) {
    std::vector<double> p50, p95;
    for (size_t i : used) {
      std::vector<uint32_t> v = lat.slice[i][c];
      if (v.empty()) continue;
      p50.push_back(Percentile(&v, 0.50));
      p95.push_back(Percentile(&v, 0.95));
    }
    std::vector<uint32_t> all = lat.Pooled(c);
    std::string n = names[c];
    j->Num(n + "_count", static_cast<double>(all.size()));
    j->Num(n + "_p50_us", Median(p50));
    j->Num(n + "_p95_us", Median(p95));
    j->Num(n + "_p99_us", Percentile(&all, 0.99));
  }
  const ThreadStats& tot = m.total;
  j->Num("attempted", static_cast<double>(tot.attempted));
  j->Num("failed", static_cast<double>(tot.failed));
  j->Num("wrong", static_cast<double>(tot.wrong));
  j->Num("shed", static_cast<double>(tot.shed));
  j->Num("deadline", static_cast<double>(tot.deadline));
  j->Num("errors", static_cast<double>(tot.errors));
  j->Num("live_keys", static_cast<double>(live_keys));
  j->Num("bytes_per_key", m.bytes_per_key);
  j->Num("rss_mean_per_key", m.rss_mean_per_key);
  j->Num("client_cpu_frac", m.client_cpu_frac);
  j->Str("problem", tot.first_problem);
}

// ---- traced run ------------------------------------------------------------

enum EngineCtr {
  kGetN, kGetNs, kBatchCalls, kBatchKeys, kBatchNs, kPutN, kPutNs,
  kDelN, kDelNs, kScanN, kScanNs, kSyncN, kSyncNs, kNumEngineCtrs
};

using EngineCounters = std::array<std::atomic<uint64_t>, kNumEngineCtrs>;
using EngineSnapshot = std::array<uint64_t, kNumEngineCtrs>;

/// Times every ShardEngine call of one shard. Only the owning shard thread
/// calls in (single writer); the window edges read the counters.
class TimedEngine final : public met::serve::ShardEngine {
 public:
  TimedEngine(std::unique_ptr<ShardEngine> inner, EngineCounters* ctr)
      : inner_(std::move(inner)), ctr_(ctr) {}

  bool Get(uint64_t key, uint64_t* value) override {
    uint64_t t0 = NowNs();
    bool r = inner_->Get(key, value);
    Done(kGetN, kGetNs, 1, t0);
    return r;
  }
  void GetBatch(const uint64_t* keys, size_t n,
                met::LookupResult* out) override {
    uint64_t t0 = NowNs();
    inner_->GetBatch(keys, n, out);
    Done(kBatchCalls, kBatchNs, 1, t0);
    Add(kBatchKeys, n);
  }
  bool Put(uint64_t key, uint64_t value) override {
    uint64_t t0 = NowNs();
    bool r = inner_->Put(key, value);
    Done(kPutN, kPutNs, 1, t0);
    return r;
  }
  bool Delete(uint64_t key) override {
    uint64_t t0 = NowNs();
    bool r = inner_->Delete(key);
    Done(kDelN, kDelNs, 1, t0);
    return r;
  }
  size_t Scan(uint64_t start, size_t limit,
              std::vector<uint64_t>* out) override {
    uint64_t t0 = NowNs();
    size_t r = inner_->Scan(start, limit, out);
    Done(kScanN, kScanNs, 1, t0);
    return r;
  }
  bool SyncWrites() override {
    uint64_t t0 = NowNs();
    bool r = inner_->SyncWrites();
    Done(kSyncN, kSyncNs, 1, t0);
    return r;
  }

 private:
  void Add(EngineCtr c, uint64_t d) {
    std::atomic<uint64_t>& a = (*ctr_)[c];
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  void Done(EngineCtr n, EngineCtr ns, uint64_t count, uint64_t t0) {
    Add(ns, NowNs() - t0);
    Add(n, count);
  }

  std::unique_ptr<ShardEngine> inner_;
  EngineCounters* ctr_;
};

EngineSnapshot SnapshotEngines(
    const std::vector<std::unique_ptr<EngineCounters>>& ctrs) {
  EngineSnapshot s{};
  for (const auto& c : ctrs)
    for (size_t i = 0; i < kNumEngineCtrs; ++i)
      s[i] += (*c)[i].load(std::memory_order_relaxed);
  return s;
}

/// Registry values read at the end of the traced window (the registry is
/// reset at its start, so every value is window-only).
struct RegistryRead {
  std::map<std::string, double> v;

  void Read() {
    auto& reg = met::obs::MetricsRegistry::Global();
    reg.Collect();
    const char* counters[] = {
        "met.serve.requests", "met.serve.read_batches",
        "met.serve.batched_gets", "met.guard.shed", "hybrid.olc.merge.count",
        "lsm.block.reads", "lsm.block.cache_hits", "lsm.wal.appends",
        "lsm.wal.syncs", "lsm.flush.count", "lsm.compaction.count",
        "met.io.retries", "met.io.errors"};
    for (const char* n : counters) {
      met::obs::Counter* c = reg.FindCounter(n);
      v[n] = c == nullptr ? 0.0 : static_cast<double>(c->Value());
    }
    Hist("met.serve.queue_depth", 0.5, "serve.queue_depth_p50", 1);
    Hist("met.guard.queue_delay_us", 0.5, "guard.queue_delay_p50_us", 1);
    Hist("met.guard.queue_delay_us", 0.99, "guard.queue_delay_p99_us", 1);
    Hist("hybrid.olc.merge.freeze_ns", 0.99, "hybrid.merge.freeze_us_p99",
         1e-3);
    Hist("hybrid.olc.merge.drain_ns", 0.5, "hybrid.merge.drain_ms_p50", 1e-6);
    Hist("hybrid.olc.merge.publish_ns", 0.99, "hybrid.merge.publish_ms_p99",
         1e-6);
    Hist("lsm.flush.duration_ns", 0.5, "lsm.flush_ms_p50", 1e-6);
    Hist("lsm.compaction.duration_ns", 0.5, "lsm.compaction_ms_p50", 1e-6);
    met::obs::Histogram* h = reg.FindHistogram("met.guard.queue_delay_us");
    v["guard.queue_delay.count"] =
        h == nullptr ? 0.0 : static_cast<double>(h->Count());
    h = reg.FindHistogram("hybrid.olc.merge.handoff_ns");
    v["hybrid.epoch_stall_ms"] =
        h == nullptr ? 0.0 : static_cast<double>(h->Max()) * 1e-6;
  }

  void Hist(const char* name, double q, const char* as, double scale) {
    met::obs::Histogram* h =
        met::obs::MetricsRegistry::Global().FindHistogram(name);
    v[as] = h == nullptr ? 0.0 : static_cast<double>(h->Quantile(q)) * scale;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Replays the traced run's keys against a replica of shard 0's index and
/// times the index's public lookups.
void ReplicaReplay(const Keyspace& ks, const ThreadStats& log, Json* j) {
  met::ConcurrentHybridConfig cfg;
  cfg.unique = false;  // configured like the serving engine: upsert PUTs
  met::OlcConcurrentHybridBTree<uint64_t> replica(cfg);
  for (uint64_t i = 0; i < ks.n; ++i) {
    uint64_t k = ks.Key(i);
    if (Keyspace::Shard(k) == 0)
      met::IndexInsert(replica, k, Keyspace::Value(k));
  }
  for (const auto& [kind, k] : log.writes) {
    if (Keyspace::Shard(k) != 0) continue;
    if (kind == kDel) {
      met::IndexRemove(replica, k);
    } else {
      met::IndexInsert(replica, k, Keyspace::Value(k));
    }
  }
  replica.WaitForMergeIdle();

  std::vector<uint64_t> keys;
  for (uint64_t k : log.reads)
    if (Keyspace::Shard(k) == 0) keys.push_back(k);
  for (uint64_t i = 0; keys.size() < 4096 && i < ks.n; ++i)
    if (Keyspace::Shard(ks.Key(i)) == 0) keys.push_back(ks.Key(i));
  const size_t reps = std::max<size_t>(1, 400000 / keys.size());
  const double lookups = static_cast<double>(reps * keys.size());
  uint64_t sink = 0;

  uint64_t t0 = NowNs();
  for (size_t r = 0; r < reps; ++r)
    for (uint64_t k : keys) {
      uint64_t v = 0;
      if (replica.Lookup(k, &v)) sink += v;
    }
  double lookup_ns = static_cast<double>(NowNs() - t0) / lookups;

  constexpr size_t kBatch = 16;  // ServerOptions::batch_width default
  met::LookupResult out[kBatch];
  t0 = NowNs();
  for (size_t r = 0; r < reps; ++r)
    for (size_t i = 0; i < keys.size(); i += kBatch) {
      size_t m = std::min(kBatch, keys.size() - i);
      met::LookupBatch(replica, keys.data() + i, m, out);
      sink += out[0].value;
    }
  double batch_ns = static_cast<double>(NowNs() - t0) / lookups;

  auto stat = replica.StaticStageSnapshot();
  t0 = NowNs();
  for (size_t r = 0; r < reps; ++r)
    for (uint64_t k : keys) {
      uint64_t v = 0;
      if (stat->Lookup(k, &v)) sink += v;
    }
  double static_ns = static_cast<double>(NowNs() - t0) / lookups;

  met::MemoryBreakdown b = replica.Breakdown();
  auto bytes = [&](const char* child) {
    const met::MemoryBreakdown* c = b.Find(child);
    return c == nullptr ? 0.0 : static_cast<double>(c->TotalBytes());
  };
  double n = static_cast<double>(replica.size());
  double dyn = static_cast<double>(replica.DynamicEntries());
  double sta = static_cast<double>(replica.StaticEntries());
  j->Num("hybrid.lookup_ns", lookup_ns);
  j->Num("hybrid.batch_ns_per_key", batch_ns);
  j->Num("btree.static_lookup_ns", static_ns);
  j->Num("hybrid.front_ns", lookup_ns - static_ns);
  j->Num("hybrid.replay.lookups", lookups);
  j->Num("hybrid.dynamic_frac", Ratio(dyn, dyn + sta));
  j->Num("hybrid.dynamic_entries", dyn);
  j->Num("hybrid.replica.keys", n);
  j->Num("hybrid.bytes_per_key", Ratio(static_cast<double>(b.TotalBytes()), n));
  j->Num("hybrid.static.bytes_per_key", Ratio(bytes("static_stage"), n));
  j->Num("hybrid.dynamic.bytes_per_key",
         Ratio(bytes("active_stage") + bytes("frozen_stage"), n));
  // The OLC hybrid keeps no Bloom filter in front of its dynamic stage.
  j->Num("hybrid.bloom.bytes_per_key", Ratio(bytes("bloom"), n));
  j->Num("hybrid.replay.checksum", static_cast<double>(sink & 0xffff));
}

/// Times the wire codec on the frames the traced run actually sent and
/// received.
void ProtocolTiming(const ThreadStats& log, Json* j) {
  const auto& reqs = log.req_log;
  const auto& resps = log.resp_log;
  if (reqs.empty() || resps.empty()) {
    j->Num("serve.protocol.encode_ns", 0);
    j->Num("serve.protocol.decode_ns", 0);
    j->Num("serve.protocol.frames", 0);
    return;
  }
  const size_t reps = std::max<size_t>(1, 200000 / reqs.size());
  std::string qbuf, rbuf;
  uint64_t t0 = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    qbuf.clear();
    for (const Request& q : reqs) met::serve::AppendRequest(q, &qbuf);
  }
  double enc_req = static_cast<double>(NowNs() - t0) / (reps * reqs.size());
  t0 = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    rbuf.clear();
    for (const Response& p : resps) met::serve::AppendResponse(p, &rbuf);
  }
  double enc_resp = static_cast<double>(NowNs() - t0) / (reps * resps.size());

  Request q;
  t0 = NowNs();
  size_t decoded = 0;
  for (size_t r = 0; r < reps; ++r) {
    size_t pos = 0;
    while (met::serve::DecodeRequest(qbuf, &pos, &q) ==
           met::serve::DecodeResult::kFrame)
      ++decoded;
  }
  double dec_req = static_cast<double>(NowNs() - t0) / (reps * reqs.size());
  Response p;
  t0 = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    size_t pos = 0;
    for (const Response& orig : resps)
      if (met::serve::DecodeResponse(rbuf, &pos, orig.op, &p) ==
          met::serve::DecodeResult::kFrame)
        ++decoded;
  }
  double dec_resp = static_cast<double>(NowNs() - t0) / (reps * resps.size());
  j->Num("serve.protocol.encode_ns", enc_req + enc_resp);
  j->Num("serve.protocol.decode_ns", dec_req + dec_resp);
  j->Num("serve.protocol.frames", static_cast<double>(decoded));
}

int RunTraced(const Workload& w, const Keyspace& ks, const Args& a) {
  ShardedKeys sharded(ks);
  std::vector<std::unique_ptr<EngineCounters>> ctrs;
  for (size_t i = 0; i < kShards; ++i) {
    ctrs.push_back(std::make_unique<EngineCounters>());
    for (auto& c : *ctrs.back()) c.store(0);
  }
  met::serve::ServerOptions opts;
  opts.num_shards = kShards;
  bool engine_failed = false;
  using EnginePtr = std::unique_ptr<met::serve::ShardEngine>;
  opts.engine_factory = [&](size_t shard) -> EnginePtr {
    EnginePtr inner;
    if (w.durable) {
      met::io::Status st;
      inner = met::serve::NewDurableEngine(
          a.dir + "/shard-" + std::to_string(shard), nullptr, &st);
    } else {
      inner = met::serve::NewMemoryEngine();
    }
    if (inner == nullptr) {
      engine_failed = true;
      inner = met::serve::NewMemoryEngine();
    }
    return std::make_unique<TimedEngine>(std::move(inner), ctrs[shard].get());
  };
  met::serve::Server server(std::move(opts));
  uint64_t t_start = NowNs();
  if (met::io::Status st = server.Start(); !st.ok() || engine_failed) {
    std::fprintf(stderr, "perfbench_gen: in-process server failed to start\n");
    return 1;
  }
  const int pid = static_cast<int>(getpid());
  std::string problem;
  double preload_s = Preload(ks, server.port(), pid, CountTasks(pid), &problem);
  if (preload_s < 0) {
    std::fprintf(stderr, "perfbench_gen: %s\n", problem.c_str());
    server.Shutdown();
    return 1;
  }
  double setup_s = static_cast<double>(NowNs() - t_start) / 1e9;

  EngineSnapshot e0{}, e1{};
  uint64_t io0 = 0, io1 = 0;
  RegistryRead reg;
  WindowHooks hooks;
  hooks.at_start = [&] {
    auto& r = met::obs::MetricsRegistry::Global();
    r.Collect();
    r.ResetAll();
    e0 = SnapshotEngines(ctrs);
    io0 = IoWriteBytes(pid);
  };
  hooks.at_end = [&] {
    e1 = SnapshotEngines(ctrs);
    io1 = IoWriteBytes(pid);
    reg.Read();
  };
  MeasureResult m = Measure(w, ks, sharded, server.port(), pid, a.seconds,
                            /*traced=*/true, hooks);
  server.Shutdown();

  EngineSnapshot e{};
  for (size_t i = 0; i < kNumEngineCtrs; ++i) e[i] = e1[i] - e0[i];
  auto& r = reg.v;
  Json j;
  j.Num("setup_s", setup_s);
  EmitCommon(m, ks.n + m.own_live, &j);

  std::vector<uint32_t> all;
  for (size_t c = 0; c < Latencies::kClasses; ++c) {
    std::vector<uint32_t> v = m.total.lat.Pooled(c);
    all.insert(all.end(), v.begin(), v.end());
  }
  double rtt_p50 = Percentile(&all, 0.5);
  double engine_ns = static_cast<double>(e[kGetNs] + e[kBatchNs] + e[kPutNs] +
                                         e[kDelNs] + e[kScanNs] + e[kSyncNs]);
  double requests = r["met.serve.requests"];
  double engine_us_per_req = Ratio(engine_ns, requests) / 1000.0;
  j.Num("serve.client.send_us",
        Ratio(static_cast<double>(m.total.send_ns),
              static_cast<double>(m.total.sends)) / 1000.0);
  j.Num("serve.client.sends", static_cast<double>(m.total.sends));
  ProtocolTiming(m.total, &j);
  j.Num("serve.rtt_p50_us", rtt_p50);
  j.Num("serve.engine_us_per_request", engine_us_per_req);
  j.Num("serve.self_us",
        rtt_p50 - r["guard.queue_delay_p50_us"] - engine_us_per_req);
  j.Num("serve.requests", requests);
  j.Num("serve.read_batches", r["met.serve.read_batches"]);
  j.Num("serve.batched_gets", r["met.serve.batched_gets"]);
  j.Num("serve.batch_keys",
        Ratio(r["met.serve.batched_gets"], r["met.serve.read_batches"]));
  double point_reads = static_cast<double>(e[kGetN] + e[kBatchKeys]);
  j.Num("serve.batched_frac",
        Ratio(static_cast<double>(e[kBatchKeys]), point_reads));
  j.Num("serve.queue_depth_p50", r["serve.queue_depth_p50"]);
  j.Num("guard.queue_delay_p50_us", r["guard.queue_delay_p50_us"]);
  j.Num("guard.queue_delay_p99_us", r["guard.queue_delay_p99_us"]);
  j.Num("guard.queue_delay.count", r["guard.queue_delay.count"]);
  j.Num("guard.shed", r["met.guard.shed"]);
  j.Num("guard.shed_frac", Ratio(r["met.guard.shed"], requests));

  auto per = [&](EngineCtr ns, EngineCtr n) {
    return Ratio(static_cast<double>(e[ns]), static_cast<double>(e[n]));
  };
  j.Num("engine.get_ns", per(kGetNs, kGetN));
  j.Num("engine.get.count", static_cast<double>(e[kGetN]));
  j.Num("engine.batch_ns_per_key", per(kBatchNs, kBatchKeys));
  j.Num("engine.batch.keys", static_cast<double>(e[kBatchKeys]));
  j.Num("engine.batch.calls", static_cast<double>(e[kBatchCalls]));
  j.Num("engine.put_ns", per(kPutNs, kPutN));
  j.Num("engine.put.count", static_cast<double>(e[kPutN]));
  j.Num("engine.delete_ns", per(kDelNs, kDelN));
  j.Num("engine.delete.count", static_cast<double>(e[kDelN]));
  j.Num("engine.scan_ns", per(kScanNs, kScanN));
  j.Num("engine.scan.count", static_cast<double>(e[kScanN]));
  j.Num("engine.sync_us", per(kSyncNs, kSyncN) / 1000.0);
  j.Num("engine.sync.count", static_cast<double>(e[kSyncN]));
  j.Num("engine.writes_per_sync",
        Ratio(static_cast<double>(e[kPutN] + e[kDelN]),
              static_cast<double>(e[kSyncN])));
  j.Num("engine.busy_ms", engine_ns / 1e6);
  j.Num("engine.busy_frac", engine_ns / (m.wall_s * 1e9 * kShards));

  j.Num("hybrid.merge.count", r["hybrid.olc.merge.count"]);
  j.Num("hybrid.merge.freeze_us_p99", r["hybrid.merge.freeze_us_p99"]);
  j.Num("hybrid.merge.drain_ms_p50", r["hybrid.merge.drain_ms_p50"]);
  j.Num("hybrid.merge.publish_ms_p99", r["hybrid.merge.publish_ms_p99"]);
  j.Num("hybrid.epoch_stall_ms", r["hybrid.epoch_stall_ms"]);

  j.Num("lsm.block.reads", r["lsm.block.reads"]);
  j.Num("lsm.block.cache_hits", r["lsm.block.cache_hits"]);
  j.Num("lsm.block_reads_per_get", Ratio(r["lsm.block.reads"], point_reads));
  j.Num("lsm.cache_hit_frac",
        Ratio(r["lsm.block.cache_hits"],
              r["lsm.block.cache_hits"] + r["lsm.block.reads"]));
  j.Num("lsm.wal.appends", r["lsm.wal.appends"]);
  j.Num("lsm.wal.syncs", r["lsm.wal.syncs"]);
  j.Num("lsm.appends_per_sync",
        Ratio(r["lsm.wal.appends"], r["lsm.wal.syncs"]));
  j.Num("lsm.flush.count", r["lsm.flush.count"]);
  j.Num("lsm.flush_ms_p50", r["lsm.flush_ms_p50"]);
  j.Num("lsm.compaction.count", r["lsm.compaction.count"]);
  j.Num("lsm.compaction_ms_p50", r["lsm.compaction_ms_p50"]);

  double user_bytes = 16.0 * static_cast<double>(e[kPutN] + e[kDelN]);
  j.Num("io.write_bytes", static_cast<double>(io1 - io0));
  j.Num("io.user_bytes", user_bytes);
  j.Num("io.write_bytes_per_user_byte",
        Ratio(static_cast<double>(io1 - io0), user_bytes));
  j.Num("io.retries_errors", r["met.io.retries"] + r["met.io.errors"]);

  if (!w.durable) ReplicaReplay(ks, m.total, &j);
  std::printf("%s\n", j.Done().c_str());
  return m.total.wrong != 0 ? 1 : 0;
}

// ---- durable reopen check --------------------------------------------------

/// The state file: one line per connection, `own_count skip...`, where
/// skip are the indices of own keys the durable check must not expect.
bool WriteState(const std::string& path, const MeasureResult& m) {
  std::ofstream out(path);
  for (size_t t = 0; t < kConns; ++t) {
    out << m.own_counts[t];
    for (uint64_t j : m.own_skip[t]) out << ' ' << j;
    out << '\n';
  }
  return static_cast<bool>(out.flush());
}

bool ReadState(const std::string& path, uint64_t* counts,
               std::vector<uint64_t>* skip) {
  std::ifstream in(path);
  std::string line;
  for (size_t t = 0; t < kConns; ++t) {
    if (!std::getline(in, line)) return false;
    std::istringstream fields(line);
    if (!(fields >> counts[t])) return false;
    for (uint64_t j; fields >> j;) skip[t].push_back(j);
    std::sort(skip[t].begin(), skip[t].end());
  }
  return true;
}

int RunVerify(const Keyspace& ks, const Args& a) {
  uint64_t own_counts[kConns] = {};
  std::vector<uint64_t> skip[kConns];
  if (!ReadState(a.state, own_counts, skip)) {
    std::fprintf(stderr, "perfbench_gen: verify needs --state from measure\n");
    return 2;
  }
  std::vector<ThreadStats> stats(kConns);
  std::vector<uint64_t> checked(kConns);
  OnConns([&](size_t t) {
    Conn c(t, ks, nullptr, ConnSeed(ks.seed, t, 4));
    if (met::io::Status s = c.Connect(a.port); !s.ok()) {
      Note(&stats[t], "connect: " + s.ToString());
      ++stats[t].failed;
      return;
    }
    uint64_t pre = ks.n * t / kConns, pre_end = ks.n * (t + 1) / kConns;
    uint64_t own = 0, own_end = own_counts[t];
    // A shed read is not a durability failure: it is retried after a pause
    // until every key has been answered.
    std::vector<Op> retry;
    do {
      std::vector<Op> shed;
      auto make = [&](Op* op) {
        if (!retry.empty()) {
          *op = std::move(retry.back());
          retry.pop_back();
        } else if (pre < pre_end) {
          *op = c.NextVerifyBatch(&pre, pre_end, nullptr);
          checked[t] += op->keys.size();
        } else if (own < own_end) {
          *op = c.NextVerifyBatch(&own, own_end, &skip[t]);
          if (op->keys.empty()) return false;  // the rest were skipped
          checked[t] += op->keys.size();
        } else {
          return false;
        }
        return true;
      };
      auto done = [&](const Op& op, const Response& r, uint64_t) {
        if (r.status == RespStatus::kShed) {
          shed.push_back(op);
        } else {
          c.Check(op, r, &stats[t]);
        }
      };
      if (!c.Pump(4, make, done, &stats[t])) return;
      retry.swap(shed);
      if (!retry.empty()) usleep(10000);
    } while (!retry.empty());
  });
  ThreadStats tot;
  for (auto& s : stats) Merge(&tot, std::move(s));
  Json j;
  j.Num("verified_keys", static_cast<double>(checked[0] + checked[1]));
  j.Num("failed", static_cast<double>(tot.failed));
  j.Num("wrong", static_cast<double>(tot.wrong));
  j.Str("problem", tot.first_problem);
  std::printf("%s\n", j.Done().c_str());
  return tot.failed != 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_gen setup|measure|verify|traced "
                 "--workload W --seed S [--seconds T] [--port P] "
                 "[--server-pid PID] [--dir D] [--state F]\n");
    return 2;
  }
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_gen: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  Keyspace ks;
  ks.seed = a.seed;
  ks.n = w->keys;

  if (a.phase == "setup") {
    std::string problem;
    double s = Preload(ks, a.port, a.server_pid, CountTasks(a.server_pid),
                       &problem);
    if (s < 0) {
      std::fprintf(stderr, "perfbench_gen: %s\n", problem.c_str());
      return 1;
    }
    Json j;
    j.Num("preload_s", s);
    std::printf("%s\n", j.Done().c_str());
    return 0;
  }
  if (a.phase == "measure") {
    ShardedKeys sharded(ks);
    MeasureResult m = Measure(*w, ks, sharded, a.port, a.server_pid,
                              a.seconds, /*traced=*/false, WindowHooks{});
    Json j;
    EmitCommon(m, ks.n + m.own_live, &j);
    std::printf("%s\n", j.Done().c_str());
    if (!a.state.empty() && !WriteState(a.state, m)) {
      std::fprintf(stderr, "perfbench_gen: cannot write %s\n",
                   a.state.c_str());
      return 2;
    }
    return m.total.wrong != 0 ? 1 : 0;
  }
  if (a.phase == "verify") return RunVerify(ks, a);
  if (a.phase == "traced") return RunTraced(*w, ks, a);
  std::fprintf(stderr, "perfbench_gen: unknown phase '%s'\n", a.phase.c_str());
  return 2;
}
