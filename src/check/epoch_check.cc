// met::check validator for the epoch-based reclamation domain
// (hybrid/epoch.h).
//
// Checked invariants:
//  * no reader slot is pinned ahead of the global epoch;
//  * every retired tag was drawn from the global epoch: strictly below its
//    current value and unique.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/check.h"
#include "hybrid/epoch.h"

namespace met::hybrid {

bool EpochDomain::ValidateImpl(std::ostream& os) const {
  check::Reporter rep(os, "EpochDomain");
  uint64_t global = GlobalEpoch();
  for (size_t i = 0; i < kSlots; ++i) {
    uint64_t v = slots_[i].epoch.load(std::memory_order_seq_cst);
    MET_CHECK_THAT(rep, v == kFree || v <= global,
                   "slot " << i << " pinned at " << v << ", global " << global);
  }
  std::vector<uint64_t> tags;
  {
    sync::MutexLock l(mu_);
    tags.reserve(retired_.size());
    for (const auto& r : retired_) tags.push_back(r.tag);
  }
  std::sort(tags.begin(), tags.end());
  for (size_t i = 0; i < tags.size(); ++i) {
    MET_CHECK_THAT(rep, tags[i] < global,
                   "retired tag " << tags[i] << " >= global " << global);
    MET_CHECK_THAT(rep, i == 0 || tags[i] != tags[i - 1],
                   "duplicate retired tag " << tags[i]);
  }
  return rep.ok();
}

}  // namespace met::hybrid
