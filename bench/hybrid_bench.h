// Shared runner for Figures 5.3-5.6: YCSB insert-only / read-only /
// read-write / scan-insert workloads over an original dynamic tree and its
// hybrid counterpart, across key types.
#ifndef MET_BENCH_HYBRID_BENCH_H_
#define MET_BENCH_HYBRID_BENCH_H_

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "keys/keygen.h"
#include "ycsb/workload.h"

namespace met::bench {

/// Runs the four Section 5.3.1 workloads on `Index` and prints one line per
/// workload. Index must expose Insert/Lookup/Update/Scan/MemoryBytes.
template <typename Index, typename Key>
void RunYcsbSuite(const char* index_name, const char* key_name,
                  const std::vector<Key>& keys) {
  size_t n_load = keys.size() * 9 / 10;  // reserve 10% for insert phases
  size_t q = 1000000;

  Index index;
  // Insert-only (the load phase is the measurement).
  double insert_mops = Mops(n_load, [&](size_t i) {
    index.Insert(keys[i], static_cast<uint64_t>(i));
  });
  size_t mem_after_load = index.MemoryBytes();

  auto reads = GenYcsbRequests(n_load, q, YcsbSpec::WorkloadC());
  double read_mops = Mops(q, [&](size_t i) {
    uint64_t v = 0;
    index.Lookup(keys[reads[i].key_index], &v);
    Consume(v);
  });

  auto rw = GenYcsbRequests(n_load, q, YcsbSpec::WorkloadA());
  double rw_mops = Mops(q, [&](size_t i) {
    uint64_t v = 0;
    if (rw[i].op == YcsbOp::kRead) {
      index.Lookup(keys[rw[i].key_index], &v);
      Consume(v);
    } else {
      index.Update(keys[rw[i].key_index], i);
    }
  });

  auto scans = GenYcsbRequests(n_load, q / 10, YcsbSpec::WorkloadE());
  size_t next_insert = n_load;
  std::vector<uint64_t> out;
  double scan_mops = Mops(scans.size(), [&](size_t i) {
    if (scans[i].op == YcsbOp::kScan) {
      out.clear();
      index.Scan(keys[scans[i].key_index], scans[i].scan_length, &out);
    } else if (next_insert < keys.size()) {
      const size_t k = next_insert++;
      index.Insert(keys[k], next_insert);
    }
  });

  std::printf(
      "%-18s %-9s | ins %7.2f  read %7.2f  rw %7.2f  scan %7.3f Mops/s | "
      "%8.1f MB\n",
      index_name, key_name, insert_mops, read_mops, rw_mops, scan_mops,
      Mb(mem_after_load));
}

inline std::vector<uint64_t> IntDataset(bool mono, size_t n) {
  return mono ? GenMonoIncInts(n) : GenRandomInts(n);
}

}  // namespace met::bench

#endif  // MET_BENCH_HYBRID_BENCH_H_
