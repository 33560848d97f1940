// Differential fuzz driver (nightly CI + local debugging).
//
// Replays seeded random op sequences through every index family against the
// std::map oracle (src/check/differential.h). On divergence the failing
// sequence is shrunk with ddmin-lite and printed as a replayable repro; with
// --out the repro is also written to a file (uploaded as a CI artifact).
//
//   fuzz_ops --seeds=16 --seed-start=1000 --ops=200000 [--structure=art]
//            [--keys=4096] [--out=/tmp/fuzz_failures.txt]
//
// Exit code: number of failing (structure, seed) pairs, capped at 125.
//
// Built with MET_CHECK=1 (tools/CMakeLists.txt), so Validate() runs at every
// checkpoint regardless of build type.
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "art/art.h"
#include "bloom/bloom.h"
#include "btree/olc_btree.h"
#include "check/btree_check.h"
#include "check/compact_btree_check.h"
#include "check/compressed_btree_check.h"
#include "check/differential.h"
#include "check/olc_schedule.h"
#include "check/skiplist_check.h"
#include "common/hash.h"
#include "common/random.h"
#include "fst/fst.h"
#include "hybrid/hybrid.h"
#include "hybrid/olc_hybrid.h"
#include "io/io.h"
#include "keys/keygen.h"
#include "lsm/lsm.h"
#include "masstree/masstree.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "skiplist/skiplist.h"
#include "surf/surf.h"

namespace met {
namespace {

using check::DiffKeys;
using check::DiffOp;
using check::DiffResult;
using check::GenOps;
using check::MinimizeOps;
using check::OpsToString;
using check::RunDynamicOps;
using check::RunStaticMergeOps;

struct Options {
  std::string structure = "all";
  uint64_t seed_start = 1;
  size_t num_seeds = 4;
  size_t num_ops = 100000;
  size_t num_keys = 4096;
  std::string out_path;
};

HybridConfig HybridFuzzConfig() {
  HybridConfig cfg;
  cfg.min_merge_entries = 512;
  return cfg;
}

HybridConfig HybridColdFuzzConfig() {
  HybridConfig cfg = HybridFuzzConfig();
  cfg.strategy = HybridConfig::MergeStrategy::kMergeCold;
  return cfg;
}

// The served configuration (non-unique upserts, background merges).
ConcurrentHybridConfig ConcurrentHybridFuzzConfig() {
  ConcurrentHybridConfig cfg;
  cfg.min_merge_entries = 512;
  cfg.unique = false;
  return cfg;
}

/// One fuzz target: returns a DiffResult for (keys, ops); deterministic, so
/// MinimizeOps can replay it on shrunk candidates.
using Target = std::function<DiffResult(const std::vector<std::string>&,
                                        const std::vector<DiffOp>&)>;

template <typename Factory>
Target DynamicTarget(Factory make_index) {
  return [make_index](const std::vector<std::string>& keys,
                      const std::vector<DiffOp>& ops) {
    auto index = make_index();
    return RunDynamicOps(index, keys, ops);
  };
}

template <typename Factory>
Target StaticTarget(Factory make_tree) {
  return [make_tree](const std::vector<std::string>& keys,
                     const std::vector<DiffOp>& ops) {
    auto tree = make_tree();
    return RunStaticMergeOps(tree, keys, ops);
  };
}

/// Build-and-probe check for the static tries (no op replay; the sequence
/// seeds the probe RNG instead, so minimization does not apply).
DiffResult FstSurfTarget(const std::vector<std::string>& keys, uint64_t seed,
                         bool surf_mode) {
  DiffResult res;
  std::ostringstream err;
  if (surf_mode) {
    Surf surf;
    surf.Build(keys, SurfConfig::Real(8));
    if (!surf.Validate(err)) {
      res.ok = false;
      res.message = "Surf::Validate failed:\n" + err.str();
      return res;
    }
    for (const std::string& k : keys) {
      if (!surf.MayContain(k)) {
        res.ok = false;
        res.message = "SuRF false negative on stored key " + k;
        return res;
      }
    }
  } else {
    std::vector<uint64_t> values(keys.size());
    for (size_t i = 0; i < values.size(); ++i) values[i] = i;
    Fst fst;
    fst.Build(keys, values);
    if (!fst.Validate(err)) {
      res.ok = false;
      res.message = "Fst::Validate failed:\n" + err.str();
      return res;
    }
    Random rng(seed);
    for (size_t p = 0; p < 4 * keys.size(); ++p) {
      size_t i = rng.Uniform(keys.size());
      uint64_t v = ~0ull;
      if (!fst.Lookup(keys[i], &v) || v != values[i]) {
        res.ok = false;
        res.message = "Fst lookup diverges on stored key " + keys[i];
        return res;
      }
    }
  }
  return res;
}

ConcurrentHybridConfig OlcHybridFuzzConfig() {
  ConcurrentHybridConfig cfg;
  cfg.background_merge = true;
  cfg.constant_trigger = true;
  cfg.constant_threshold = 512;
  return cfg;
}

/// Integer half of the batch target: CompactBTree<uint64_t> and the served
/// OLC hybrid (non-unique, background merges racing the probes, so a frozen
/// stage is often present) against their own scalar Lookup.
DiffResult IntBatchTarget(const std::vector<std::string>& keys,
                          uint64_t seed) {
  DiffResult res;
  std::vector<uint64_t> ints;
  for (const std::string& k : keys) ints.push_back(MurmurHash64(k) >> 1);
  std::sort(ints.begin(), ints.end());
  ints.erase(std::unique(ints.begin(), ints.end()), ints.end());
  std::vector<MergeEntry<uint64_t, uint64_t>> entries;
  for (size_t i = 0; i < ints.size(); ++i)
    entries.push_back({ints[i], i + 1, false});
  CompactBTree<uint64_t> tree;
  tree.Build(std::move(entries));
  ConcurrentHybridConfig cfg = OlcHybridFuzzConfig();
  cfg.unique = false;
  OlcConcurrentHybridBTree<uint64_t> hybrid(cfg);

  Random rng(seed ^ 0x1B7C);
  auto draw = [&]() -> uint64_t {
    uint64_t k = ints[rng.Uniform(ints.size())];
    switch (rng.Uniform(3)) {
      case 0: return k;
      case 1: return k + 1;  // absent neighbour (ints are spaced by hash)
      default: return rng.Next();
    }
  };
  std::vector<uint64_t> q(333);
  std::vector<LookupResult> out(q.size());
  auto diverges = [&](const auto& index, const char* name, size_t cnt) {
    LookupBatch(index, q.data(), cnt, out.data());
    for (size_t j = 0; j < cnt; ++j) {
      uint64_t v = 0;
      bool found = index.Lookup(q[j], &v);
      if (out[j].found != found || out[j].value != (found ? v : 0)) {
        res.ok = false;
        res.message = std::string(name) +
                      "::LookupBatch diverges from Lookup on key " +
                      std::to_string(q[j]);
        return true;
      }
    }
    return false;
  };
  constexpr size_t kChunks[] = {1, 5, 16, 17, 64, 333};
  for (size_t round = 0; round < 4 * ints.size() / 16; ++round) {
    for (int w = 0; w < 8; ++w) {
      uint64_t k = draw();
      if (rng.Uniform(4) == 0)
        IndexRemove(hybrid, k);
      else
        IndexInsert(hybrid, k, rng.Next() >> 1);
    }
    size_t cnt = kChunks[round % 6];
    for (size_t j = 0; j < cnt; ++j) q[j] = draw();
    if (diverges(tree, "CompactBTree", cnt)) return res;
    if (diverges(hybrid, "OlcConcurrentHybridBTree", cnt)) return res;
  }
  return res;
}

/// met::batch target: batched lookups (FST, SuRF, Bloom, then the integer
/// kernels above) must answer a seeded probe stream bit-identically to the
/// scalar path, across uneven chunk splits. Checked builds additionally run
/// the kernels' inline parity asserts, so a divergence aborts with the exact
/// probe.
DiffResult BatchTarget(const std::vector<std::string>& keys, uint64_t seed) {
  DiffResult res;
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i + 1;
  Fst fst;
  fst.Build(keys, values);
  Surf surf;
  surf.Build(keys, SurfConfig::Mixed(4, 4));
  BloomFilter bloom(keys.size(), 14);
  for (const std::string& k : keys) bloom.Add(k);

  Random rng(seed ^ 0xBA7C);
  std::vector<std::string> probes;
  probes.reserve(4 * keys.size());
  probes.emplace_back();  // empty key
  while (probes.size() < 4 * keys.size()) {
    std::string k = keys[rng.Uniform(keys.size())];
    switch (rng.Uniform(4)) {
      case 0:
        break;  // stored key
      case 1:
        if (!k.empty()) k[rng.Uniform(k.size())] ^= 1;
        break;
      case 2:
        k.push_back(static_cast<char>(rng.Uniform(256)));
        break;
      default:
        if (!k.empty()) k.pop_back();
        break;
    }
    probes.push_back(std::move(k));
  }
  std::vector<std::string_view> views(probes.begin(), probes.end());
  const size_t n = views.size();

  constexpr size_t kChunks[] = {1, 5, 16, 64, 333};
  std::vector<LookupResult> fst_out(n);
  std::vector<uint8_t> surf_out(n), bloom_out(n);
  std::unique_ptr<bool[]> buf(new bool[333]);
  size_t c = 0;
  for (size_t i = 0; i < n;) {
    size_t cnt = std::min(kChunks[c++ % 5], n - i);
    fst.LookupBatch(&views[i], cnt, &fst_out[i]);
    surf.MayContainBatch(&views[i], cnt, buf.get());
    for (size_t j = 0; j < cnt; ++j) surf_out[i + j] = buf[j] ? 1 : 0;
    bloom.MayContainBatch(&views[i], cnt, buf.get());
    for (size_t j = 0; j < cnt; ++j) bloom_out[i + j] = buf[j] ? 1 : 0;
    i += cnt;
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    bool found = fst.Lookup(views[i], &v);
    if (fst_out[i].found != found || (found && fst_out[i].value != v)) {
      res.ok = false;
      res.message = "Fst::LookupBatch diverges from Lookup on probe " +
                    std::to_string(i) + " (" + probes[i] + ")";
      return res;
    }
    if ((surf_out[i] != 0) != surf.MayContain(views[i])) {
      res.ok = false;
      res.message = "Surf::MayContainBatch diverges on probe " +
                    std::to_string(i) + " (" + probes[i] + ")";
      return res;
    }
    if ((bloom_out[i] != 0) != bloom.MayContain(views[i])) {
      res.ok = false;
      res.message = "BloomFilter::MayContainBatch diverges on probe " +
                    std::to_string(i) + " (" + probes[i] + ")";
      return res;
    }
  }
  return IntBatchTarget(keys, seed);
}

DiffResult LsmTarget(const std::vector<std::string>& keys,
                     const std::vector<DiffOp>& ops, uint64_t seed) {
  DiffResult res;
  LsmOptions opt;
  opt.dir = "/tmp/met_fuzz_lsm_" + std::to_string(seed);
  opt.memtable_bytes = 32 << 10;
  opt.block_bytes = 1024;
  opt.sstable_target_bytes = 64 << 10;
  opt.level1_bytes = 256 << 10;
  opt.filter = LsmFilterType::kBloom;
  LsmTree tree(opt);
  std::map<std::string, std::string> oracle;

  auto fail = [&](size_t i, std::string msg) {
    res.ok = false;
    res.failed_op = i;
    res.message = std::move(msg);
  };
  for (size_t i = 0; i < ops.size() && res.ok; ++i) {
    const DiffOp& op = ops[i];
    const std::string& k = keys[op.key_index % keys.size()];
    switch (op.kind) {
      case DiffOp::kInsert:
      case DiffOp::kInsertOrAssign:
      case DiffOp::kUpdate: {
        std::string v = "v" + std::to_string(op.value);
        if (!tree.Put(k, v).ok()) std::abort();  // would desync the oracle
        oracle[k] = v;
        break;
      }
      case DiffOp::kScan: {
        std::optional<std::string> got = tree.Seek(k);
        auto it = oracle.lower_bound(k);
        bool want = it != oracle.end();
        if (got.has_value() != want || (want && *got != it->first))
          fail(i, "Seek(" + k + ") diverges");
        break;
      }
      default: {  // kErase has no engine equivalent; probe instead
        std::string got_v;
        bool got = tree.Lookup(k, &got_v);
        auto it = oracle.find(k);
        bool want = it != oracle.end();
        if (got != want || (got && got_v != it->second))
          fail(i, "Get(" + k + ") diverges");
        break;
      }
    }
    if (res.ok && (i + 1) % 4096 == 0) {
      std::ostringstream err;
      if (!tree.Validate(err))
        fail(i, "LsmTree::Validate failed:\n" + err.str());
    }
  }
  if (res.ok) {
    std::ostringstream err;
    if (!tree.Validate(err))
      fail(ops.size(), "LsmTree::Validate failed:\n" + err.str());
  }
  return res;
}

// ---- met::serve wire-protocol fuzz ---------------------------------------
//
// Not a differential index target: exercises the frame codec
// (serve/protocol.h) with round-trips, every truncation prefix, and
// garbage/bit-flipped streams. The decoder must never crash, never consume
// past the buffer, round-trip every legal frame exactly, and classify every
// prefix of a valid stream as kNeedMore/kFrame (never kError).

serve::Request RandomRequest(Random* rng) {
  serve::Request r;
  r.op = static_cast<serve::OpCode>(1 + rng->Uniform(5));
  r.id = static_cast<uint32_t>(rng->Next());
  // kMultiGet carries its keys in multi_keys; the scalar key field is not
  // on the wire for it, so leave it defaulted or round-trip comparison
  // would flag a phantom mismatch.
  if (r.op != serve::OpCode::kMultiGet) r.key = rng->Next();
  // v2 flag fields: exercised on every opcode (the codec round-trips them
  // regardless of whether the server honors them for that op).
  if (rng->Uniform(3) == 0)
    r.deadline_ms = 1 + static_cast<uint32_t>(rng->Uniform(100000));
  if (rng->Uniform(3) == 0) r.idem = rng->Next() | 1;
  switch (r.op) {
    case serve::OpCode::kPut:
      r.value = rng->Next();
      break;
    case serve::OpCode::kScan:
      r.scan_limit = static_cast<uint32_t>(rng->Uniform(serve::kMaxScanLimit + 1));
      break;
    case serve::OpCode::kMultiGet: {
      size_t n = rng->Uniform(serve::kMaxMultiGetKeys + 1);
      r.multi_keys.resize(n);
      for (auto& k : r.multi_keys) k = rng->Next();
      break;
    }
    default:
      break;
  }
  return r;
}

serve::Response RandomResponse(Random* rng, serve::OpCode op) {
  serve::Response r;
  r.status = static_cast<serve::RespStatus>(rng->Uniform(5));
  r.op = op;
  r.id = static_cast<uint32_t>(rng->Next());
  if (r.status != serve::RespStatus::kOk) {
    if (r.status == serve::RespStatus::kShed && rng->Uniform(2) == 0)
      r.retry_after_ms = 1 + static_cast<uint32_t>(rng->Uniform(1000));
    return r;
  }
  switch (op) {
    case serve::OpCode::kGet:
      r.value = rng->Next();
      break;
    case serve::OpCode::kScan: {
      size_t n = rng->Uniform(serve::kMaxScanLimit + 1);
      r.scan_values.resize(n);
      for (auto& v : r.scan_values) v = rng->Next();
      break;
    }
    case serve::OpCode::kMultiGet: {
      size_t n = rng->Uniform(serve::kMaxMultiGetKeys + 1);
      r.multi.resize(n);
      for (auto& e : r.multi) {
        e.found = rng->Uniform(2) == 1;
        e.value = rng->Next();
      }
      break;
    }
    default:
      break;
  }
  return r;
}

bool SameRequest(const serve::Request& a, const serve::Request& b) {
  return a.op == b.op && a.id == b.id && a.key == b.key && a.value == b.value &&
         a.scan_limit == b.scan_limit && a.multi_keys == b.multi_keys &&
         a.deadline_ms == b.deadline_ms && a.idem == b.idem;
}

bool SameResponse(const serve::Response& a, const serve::Response& b) {
  if (a.status != b.status || a.id != b.id) return false;
  if (a.status != serve::RespStatus::kOk)
    return a.retry_after_ms == b.retry_after_ms;
  if (a.op != b.op) return false;
  switch (a.op) {
    case serve::OpCode::kGet:
      return a.value == b.value;
    case serve::OpCode::kScan:
      return a.scan_values == b.scan_values;
    case serve::OpCode::kMultiGet:
      if (a.multi.size() != b.multi.size()) return false;
      for (size_t i = 0; i < a.multi.size(); ++i)
        if (a.multi[i].found != b.multi[i].found ||
            a.multi[i].value != b.multi[i].value)
          return false;
      return true;
    default:
      return true;
  }
}

int64_t OpenFds() { return io::IoObsMetrics::Get().open_fds->Value(); }

/// Polls met.io.open_fds back to `baseline` (the server closes its side of
/// a killed connection asynchronously on the shard thread).
bool WaitFdsBaseline(int64_t baseline) {
  for (int i = 0; i < 2000; ++i) {
    if (OpenFds() == baseline) return true;
    usleep(1000);
  }
  return OpenFds() == baseline;
}

/// Malformed-frame corpus against a live in-process server: truncated
/// header, oversized/zero length word, garbage opcode, flag bits promising
/// fields the body lacks, mid-frame EOF, and pure garbage. After every
/// case the server must still answer a well-formed request and
/// met.io.open_fds must return to the post-start baseline (no leaked
/// connection fds on the proto-error close path).
DiffResult LiveProtoTarget(uint64_t seed) {
  DiffResult res;
  auto fail = [&](size_t i, std::string msg) {
    res.ok = false;
    res.failed_op = i;
    res.message = std::move(msg);
  };
  serve::ServerOptions sopts;
  sopts.port = 0;
  sopts.num_shards = 1;
  serve::Server server(std::move(sopts));
  if (!server.Start().ok()) {
    fail(0, "live proto: server start failed");
    return res;
  }
  const int64_t baseline = OpenFds();
  {
    serve::Client c;
    serve::Response r;
    if (!c.Connect("127.0.0.1", server.port()).ok() || !c.Put(7, 8, &r).ok() ||
        r.status != serve::RespStatus::kOk) {
      fail(0, "live proto: seed write failed");
      return res;
    }
  }
  if (!WaitFdsBaseline(baseline)) {
    fail(0, "live proto: fds did not settle after seed write");
    return res;
  }

  Random rng(seed ^ 0xF00DF4A3);
  std::vector<std::string> corpus;
  // Truncated header: 2 of the 4 length bytes, then EOF.
  corpus.push_back(std::string("\x09\x00", 2));
  {  // Oversized length word (far past kMaxFrameBytes).
    std::string b;
    serve::PutU32(&b, 0xFFFFFFF0u);
    b.push_back(1);
    serve::PutU32(&b, 1);
    corpus.push_back(b);
  }
  {  // Zero length word (below the minimum body).
    std::string b;
    serve::PutU32(&b, 0);
    corpus.push_back(b);
  }
  {  // Garbage opcode with a plausible GET-shaped body.
    std::string b;
    serve::PutU32(&b, 13);
    b.push_back(0x3f);
    serve::PutU32(&b, 2);
    serve::PutU64(&b, 42);
    corpus.push_back(b);
  }
  {  // Both v2 flags set but no room for their fields.
    std::string b;
    serve::PutU32(&b, 13);
    b.push_back(static_cast<char>(1 | serve::kReqFlagDeadline |
                                  serve::kReqFlagIdem));
    serve::PutU32(&b, 3);
    serve::PutU64(&b, 42);
    corpus.push_back(b);
  }
  {  // Mid-frame EOF: a valid PUT cut in half.
    serve::Request q;
    q.op = serve::OpCode::kPut;
    q.id = 4;
    q.key = 1;
    q.value = 2;
    std::string b;
    serve::AppendRequest(q, &b);
    corpus.push_back(b.substr(0, b.size() / 2));
  }
  {  // Pure garbage.
    std::string g(64, '\0');
    for (auto& ch : g) ch = static_cast<char>(rng.Next());
    corpus.push_back(g);
  }

  for (size_t ci = 0; ci < corpus.size(); ++ci) {
    int fd = -1;
    if (!serve::ConnectTcp("127.0.0.1", server.port(), &fd).ok()) {
      fail(ci, "live proto: connect failed");
      return res;
    }
    // Send outcome is advisory: the server may already have reset the
    // connection, which is a fine answer to a malformed stream.
    (void)serve::SendAll(fd, corpus[ci]);
    (void)shutdown(fd, SHUT_WR);
    timeval tv{};
    tv.tv_usec = 200 * 1000;
    (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char sink[256];
    while (recv(fd, sink, sizeof(sink), 0) > 0) {
    }
    serve::CloseFd(fd);
    if (!WaitFdsBaseline(baseline)) {
      fail(ci, "live proto: open_fds leaked after malformed case " +
                   std::to_string(ci));
      return res;
    }
    // Liveness: the server still answers a well-formed request.
    serve::Client c;
    serve::Response r;
    if (!c.Connect("127.0.0.1", server.port()).ok() || !c.Get(7, &r).ok() ||
        r.status != serve::RespStatus::kOk || r.value != 8) {
      fail(ci, "live proto: server unhealthy after malformed case " +
                   std::to_string(ci));
      return res;
    }
    c.Close();
    if (!WaitFdsBaseline(baseline)) {
      fail(ci, "live proto: open_fds leaked after liveness probe " +
                   std::to_string(ci));
      return res;
    }
  }
  server.Shutdown();
  return res;
}

DiffResult ProtoTarget(uint64_t seed) {
  DiffResult res;
  auto fail = [&](size_t op, std::string msg) {
    res.ok = false;
    res.failed_op = op;
    res.message = std::move(msg);
  };
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 17);

  // 1) Round trip: streams of 1-4 random frames decode back field-for-field.
  for (size_t iter = 0; iter < 400; ++iter) {
    size_t frames = 1 + rng.Uniform(4);
    std::vector<serve::Request> reqs;
    std::vector<serve::Response> resps;
    std::string req_buf, resp_buf;
    for (size_t f = 0; f < frames; ++f) {
      reqs.push_back(RandomRequest(&rng));
      serve::AppendRequest(reqs.back(), &req_buf);
      resps.push_back(RandomResponse(&rng, reqs.back().op));
      serve::AppendResponse(resps.back(), &resp_buf);
    }
    size_t pos = 0;
    for (size_t f = 0; f < frames; ++f) {
      serve::Request got;
      if (serve::DecodeRequest(req_buf, &pos, &got) !=
          serve::DecodeResult::kFrame)
        return fail(iter, "request stream failed to decode"), res;
      if (!SameRequest(reqs[f], got))
        return fail(iter, "request round-trip mismatch"), res;
    }
    if (pos != req_buf.size())
      return fail(iter, "request decode left trailing bytes"), res;
    pos = 0;
    for (size_t f = 0; f < frames; ++f) {
      serve::Response got;
      if (serve::DecodeResponse(resp_buf, &pos, reqs[f].op, &got) !=
          serve::DecodeResult::kFrame)
        return fail(iter, "response stream failed to decode"), res;
      if (!SameResponse(resps[f], got))
        return fail(iter, "response round-trip mismatch"), res;
    }

    // 2) Truncation: every prefix of the request stream is kNeedMore or a
    // complete prefix of frames — never kError, never consumed past the end.
    for (size_t cut = 0; cut < req_buf.size(); ++cut) {
      std::string_view prefix(req_buf.data(), cut);
      size_t p = 0;
      for (;;) {
        serve::Request got;
        serve::DecodeResult r = serve::DecodeRequest(prefix, &p, &got);
        if (r == serve::DecodeResult::kError)
          return fail(iter, "truncated stream decoded as kError"), res;
        if (r == serve::DecodeResult::kNeedMore) break;
        if (p > prefix.size())
          return fail(iter, "decoder consumed past truncated buffer"), res;
      }
    }

    // 3) Bit flips and pure garbage: any outcome but a crash or
    // out-of-bounds consumption is acceptable; kError must be sticky for
    // the caller (we just stop, as the server closes the connection).
    std::string mangled = req_buf;
    for (int flips = 0; flips < 8; ++flips)
      mangled[rng.Uniform(mangled.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    std::string garbage(rng.Uniform(200), '\0');
    for (auto& ch : garbage) ch = static_cast<char>(rng.Next());
    for (const std::string& stream : {mangled, garbage}) {
      size_t p = 0;
      for (;;) {
        serve::Request got;
        serve::DecodeResult r = serve::DecodeRequest(stream, &p, &got);
        if (r != serve::DecodeResult::kFrame) break;
        if (p > stream.size())
          return fail(iter, "decoder consumed past garbage buffer"), res;
      }
      p = 0;
      for (;;) {
        serve::Response got;
        serve::DecodeResult r = serve::DecodeResponse(
            stream, &p, static_cast<serve::OpCode>(1 + rng.Uniform(5)), &got);
        if (r != serve::DecodeResult::kFrame) break;
        if (p > stream.size())
          return fail(iter, "decoder consumed past garbage buffer"), res;
      }
    }
  }
  // 4) The malformed-frame corpus against a live in-process server (fd
  // accounting + liveness after every case).
  if (res.ok) res = LiveProtoTarget(seed);
  return res;
}

// ---- OLC multi-writer schedule targets -----------------------------------
//
// Not op-replay differentials: each run drives the interleaved multi-writer
// schedule harness (check/olc_schedule.h) with the fuzz seed, checking
// every mutation outcome against per-writer linearizability oracles while
// readers and background merges run concurrently. The interleaving is not
// replayable op-for-op, so minimization does not apply — the repro line is
// the (target, seed) pair.

template <typename MakeIndex, typename KeyFn>
DiffResult OlcScheduleTarget(uint64_t seed, MakeIndex make_index,
                             KeyFn key_of) {
  auto index = make_index();
  check::OlcScheduleConfig cfg;
  cfg.seed = seed;
  cfg.writers = 6;
  cfg.readers = 2;
  cfg.ops_per_writer = 6000;
  check::OlcScheduleResult r = check::RunOlcSchedule(&index, cfg, key_of);
  DiffResult res;
  if (!r.ok) {
    res.ok = false;
    res.message = r.message;
  }
  return res;
}

uint64_t OlcIntKey(int writer, int i) {
  return static_cast<uint64_t>(writer) * 1000000 + static_cast<uint64_t>(i);
}

struct NamedTarget {
  const char* name;
  Target target;
  bool minimizable;
};

std::vector<NamedTarget> BuildTargets(uint64_t seed) {
  std::vector<NamedTarget> targets;
  targets.push_back(
      {"btree", DynamicTarget([] { return BTree<std::string>(); }), true});
  targets.push_back(
      {"skiplist", DynamicTarget([] { return SkipList<std::string>(); }),
       true});
  targets.push_back({"art", DynamicTarget([] { return Art(); }), true});
  targets.push_back(
      {"masstree", DynamicTarget([] { return Masstree(); }), true});
  targets.push_back({"hybrid_btree", DynamicTarget([] {
                       return check::HybridDiffAdapter<HybridBTree<std::string>>(
                           HybridFuzzConfig());
                     }),
                     true});
  targets.push_back({"hybrid_compressed_btree", DynamicTarget([] {
                       return check::HybridDiffAdapter<
                           HybridCompressedBTree<std::string>>(
                           HybridFuzzConfig());
                     }),
                     true});
  targets.push_back({"hybrid_art", DynamicTarget([] {
                       return check::HybridDiffAdapter<HybridArt>(
                           HybridFuzzConfig());
                     }),
                     true});
  targets.push_back({"hybrid_btree_cold", DynamicTarget([] {
                       return check::HybridDiffAdapter<HybridBTree<std::string>>(
                           HybridColdFuzzConfig());
                     }),
                     true});
  targets.push_back({"hybrid_art_cold", DynamicTarget([] {
                       return check::HybridDiffAdapter<HybridArt>(
                           HybridColdFuzzConfig());
                     }),
                     true});
  targets.push_back({"concurrent_hybrid_btree",
                     [](const std::vector<std::string>& keys,
                        const std::vector<DiffOp>& ops) {
                       check::OutcomeHybridDiffAdapter<
                           OlcConcurrentHybridBTree<uint64_t>>
                           index(ConcurrentHybridFuzzConfig(), keys);
                       return RunDynamicOps(index, keys, ops);
                     },
                     true});
  targets.push_back({"olc_btree_mw",
                     [seed](const std::vector<std::string>&,
                            const std::vector<DiffOp>&) {
                       return OlcScheduleTarget(
                           seed, [] { return OlcBTree<uint64_t>(); },
                           OlcIntKey);
                     },
                     false});
  targets.push_back({"olc_hybrid_btree_mw",
                     [seed](const std::vector<std::string>&,
                            const std::vector<DiffOp>&) {
                       return OlcScheduleTarget(
                           seed,
                           [] {
                             return OlcConcurrentHybridBTree<uint64_t>(
                                 OlcHybridFuzzConfig());
                           },
                           OlcIntKey);
                     },
                     false});
  targets.push_back(
      {"compact_btree", StaticTarget([] { return CompactBTree<std::string>(); }),
       true});
  targets.push_back({"compressed_btree",
                     StaticTarget([] { return CompressedBTree<std::string>(); }),
                     true});
  targets.push_back({"compact_art_stage",
                     StaticTarget([] { return StatCompactArtStage(); }), true});
  targets.push_back({"compact_masstree_stage",
                     StaticTarget([] { return StatCompactMasstreeStage(); }),
                     true});
  targets.push_back({"fst",
                     [seed](const std::vector<std::string>& keys,
                            const std::vector<DiffOp>&) {
                       return FstSurfTarget(keys, seed, /*surf_mode=*/false);
                     },
                     false});
  targets.push_back({"surf",
                     [seed](const std::vector<std::string>& keys,
                            const std::vector<DiffOp>&) {
                       return FstSurfTarget(keys, seed, /*surf_mode=*/true);
                     },
                     false});
  targets.push_back({"batch",
                     [seed](const std::vector<std::string>& keys,
                            const std::vector<DiffOp>&) {
                       return BatchTarget(keys, seed);
                     },
                     false});
  targets.push_back({"lsm",
                     [seed](const std::vector<std::string>& keys,
                            const std::vector<DiffOp>& ops) {
                       return LsmTarget(keys, ops, seed);
                     },
                     false});
  targets.push_back({"proto",
                     [seed](const std::vector<std::string>&,
                            const std::vector<DiffOp>&) {
                       return ProtoTarget(seed);
                     },
                     false});
  return targets;
}

int Run(const Options& opt) {
  int failures = 0;
  std::ofstream out;
  if (!opt.out_path.empty()) out.open(opt.out_path, std::ios::app);

  for (size_t s = 0; s < opt.num_seeds; ++s) {
    uint64_t seed = opt.seed_start + s;
    std::vector<std::string> keys = DiffKeys(opt.num_keys, seed);
    std::vector<DiffOp> ops = GenOps(seed, opt.num_ops, keys.size());

    for (NamedTarget& t : BuildTargets(seed)) {
      if (opt.structure != "all" && opt.structure != t.name) continue;
      DiffResult res = t.target(keys, ops);
      if (res.ok) {
        std::cout << "[fuzz] ok   " << t.name << " seed=" << seed << "\n";
        continue;
      }
      ++failures;
      std::ostringstream report;
      report << "[fuzz] FAIL " << t.name << " seed=" << seed
             << " keys=" << opt.num_keys << " ops=" << opt.num_ops
             << " at op " << res.failed_op << ": " << res.message << "\n";
      if (t.minimizable) {
        std::vector<DiffOp> min_ops = MinimizeOps(
            ops, [&](const std::vector<DiffOp>& cand) {
              return !t.target(keys, cand).ok;
            });
        report << "minimized to " << min_ops.size() << " ops:\n"
               << OpsToString(min_ops, keys)
               << "repro: fuzz_ops --structure=" << t.name
               << " --seed-start=" << seed << " --seeds=1 --ops="
               << opt.num_ops << " --keys=" << opt.num_keys << "\n";
      }
      std::cerr << report.str();
      if (out.is_open()) out << report.str() << std::flush;
    }
  }
  std::cout << "[fuzz] done: " << failures << " failure(s)\n";
  return failures > 125 ? 125 : failures;
}

}  // namespace
}  // namespace met

int main(int argc, char** argv) {
  met::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--structure=")) {
      opt.structure = v;
    } else if (const char* v = value("--seed-start=")) {
      opt.seed_start = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--seeds=")) {
      opt.num_seeds = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--ops=")) {
      opt.num_ops = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--keys=")) {
      opt.num_keys = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--out=")) {
      opt.out_path = v;
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: fuzz_ops [--structure=NAME|all] [--seed-start=N]\n"
                << "                [--seeds=N] [--ops=N] [--keys=N] "
                   "[--out=PATH]\n";
      return 2;
    }
  }
  return met::Run(opt);
}
