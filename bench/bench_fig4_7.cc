// Figure 4.7 — SuRF Scalability: aggregate point-query throughput with 1-4
// threads (SuRF is read-only and lock-free). Scaling past the number of
// visible cores (printed at the end) reflects the hardware, not the data
// structure; the paper shows near-perfect scaling on 10 physical cores.
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "keys/keygen.h"
#include "surf/surf.h"
#include "ycsb/workload.h"

using namespace met;

int main() {
  bench::Title("Figure 4.7: SuRF thread scalability (point queries)");
  size_t n = 1000000 * bench::Scale();
  auto keys = ToStringKeys(GenRandomInts(n));
  std::vector<std::string> stored(keys.begin(), keys.begin() + n / 2);
  SortUnique(&stored);
  Surf surf;
  surf.Build(stored, SurfConfig::Hash(4));

  size_t q = 1000000;
  auto reqs = GenYcsbRequests(keys.size(), q, YcsbSpec::WorkloadC());

  std::printf("%8s %14s\n", "Threads", "Mops/s (agg)");
  for (int threads = 1; threads <= 4; ++threads) {
    Timer timer;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        uint64_t acc = 0;
        for (size_t i = t; i < reqs.size(); i += threads)
          acc += surf.MayContain(keys[reqs[i].key_index]);
        met::bench::Consume(acc);
      });
    }
    for (auto& th : pool) th.join();
    double mops = q / timer.ElapsedSeconds() / 1e6;
    std::printf("%8d %14.2f\n", threads, mops);
  }
  std::printf("  (hardware: %u core(s) visible — scaling is capped there)\n",
              std::thread::hardware_concurrency());
  return 0;
}
