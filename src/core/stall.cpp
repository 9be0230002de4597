#include "core/stall.h"

#include <algorithm>
#include <vector>

#include "common/archive.h"

namespace mflush {

StallPolicy::StallPolicy(Cycle trigger)
    : trigger_(trigger), name_("STALL-S" + std::to_string(trigger)) {}

void StallPolicy::on_load_issued(ThreadId tid, std::uint64_t token,
                                 std::uint32_t /*l2_bank*/, Cycle now) {
  outstanding_.emplace(token, Outstanding{.tid = tid, .issue = now});
}

void StallPolicy::on_load_resolved(ThreadId tid, std::uint64_t token,
                                   Cycle /*issue*/, Cycle /*now*/,
                                   bool /*l2_accessed*/, bool /*l2_hit*/,
                                   std::uint32_t /*bank*/) {
  outstanding_.erase(token);
  if (stall_token_[tid] == token) stall_token_[tid] = 0;
}

void StallPolicy::save_state(ArchiveWriter& ar) const { ar.walk(*this); }
void StallPolicy::load_state(ArchiveReader& ar) { ar.walk(*this); }

Cycle StallPolicy::quiescent_until(Cycle now) const {
  Cycle h = kNeverCycle;
  for (const auto& [token, o] : outstanding_.entries()) {
    if (stall_token_[o.tid] != 0) continue;  // waits on resolution
    h = std::min(h, o.issue + trigger_);
  }
  return h > now ? h : now + 1;
}

void StallPolicy::on_cycle(Cycle now, CoreControl& ctrl) {
  by_age_.clear();
  for (const auto& [token, o] : outstanding_.entries()) {
    if (stall_token_[o.tid] != 0) continue;
    if (now >= o.issue + trigger_) by_age_.emplace_back(o.issue, token);
  }
  if (by_age_.empty()) return;
  std::sort(by_age_.begin(), by_age_.end());
  fire_.clear();
  for (const auto& [issue, token] : by_age_) fire_.push_back(token);
  for (const std::uint64_t token : fire_) {
    const Outstanding* o = outstanding_.find(token);
    if (o == nullptr) continue;
    const ThreadId tid = o->tid;
    if (stall_token_[tid] != 0) continue;
    if (ctrl.stall_until_load(token)) {
      stall_token_[tid] = token;
    } else {
      outstanding_.erase(token);
    }
  }
}

}  // namespace mflush
