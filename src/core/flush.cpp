#include "core/flush.h"

#include <algorithm>
#include <vector>

#include "common/archive.h"

namespace mflush {

FlushPolicy::FlushPolicy(DetectionMoment dm, Cycle trigger)
    : dm_(dm), trigger_(trigger) {
  name_ = dm == DetectionMoment::NonSpec
              ? "FLUSH-NS"
              : "FLUSH-S" + std::to_string(trigger);
}

void FlushPolicy::on_load_issued(ThreadId tid, std::uint64_t token,
                                 std::uint32_t /*l2_bank*/, Cycle now) {
  outstanding_.emplace(token, Outstanding{.tid = tid, .issue = now});
}

void FlushPolicy::on_load_l2_miss(ThreadId /*tid*/, std::uint64_t token,
                                  std::uint32_t /*bank*/, Cycle /*now*/) {
  if (Outstanding* o = outstanding_.find(token)) o->l2_miss_known = true;
}

void FlushPolicy::on_load_resolved(ThreadId tid, std::uint64_t token,
                                   Cycle /*issue*/, Cycle /*now*/,
                                   bool l2_accessed, bool l2_hit,
                                   std::uint32_t /*bank*/) {
  outstanding_.erase(token);
  if (flush_token_[tid] == token) {
    flush_token_[tid] = 0;
    if (!l2_accessed)
      ++counters_.flushes_on_l1;
    else if (l2_hit)
      ++counters_.flushes_on_hit;  // false miss
    else
      ++counters_.flushes_on_miss;
  }
}

void FlushPolicy::save_state(ArchiveWriter& ar) const { ar.walk(*this); }
void FlushPolicy::load_state(ArchiveReader& ar) { ar.walk(*this); }

Cycle FlushPolicy::quiescent_until(Cycle now) const {
  Cycle h = kNeverCycle;
  for (const auto& [token, o] : outstanding_.entries()) {
    if (thread_flushed(o.tid)) continue;  // waits on a resolution callback
    if (dm_ == DetectionMoment::SpecDelay) {
      h = std::min(h, o.issue + trigger_);
    } else if (o.l2_miss_known) {
      return now + 1;  // armed: fires on the very next heartbeat
    }
  }
  return h > now ? h : now + 1;
}

void FlushPolicy::on_cycle(Cycle now, CoreControl& ctrl) {
  // Collect triggered tokens first: flushing mutates core state that feeds
  // back into `outstanding_` via callbacks. Oldest offender first — the
  // response action squashes everything younger than the chosen load.
  by_age_.clear();
  for (const auto& [token, o] : outstanding_.entries()) {
    if (thread_flushed(o.tid)) continue;
    const bool triggered = dm_ == DetectionMoment::SpecDelay
                               ? now >= o.issue + trigger_
                               : o.l2_miss_known;
    if (triggered) by_age_.emplace_back(o.issue, token);
  }
  if (by_age_.empty()) return;
  std::sort(by_age_.begin(), by_age_.end());
  fire_.clear();
  for (const auto& [issue, token] : by_age_) fire_.push_back(token);
  for (const std::uint64_t token : fire_) {
    const Outstanding* o = outstanding_.find(token);
    if (o == nullptr) continue;
    const ThreadId tid = o->tid;
    if (thread_flushed(tid)) continue;  // another load already flushed it
    if (ctrl.flush_after_load(token)) {
      flush_token_[tid] = token;
    } else {
      // The load vanished (completed or squashed by an older flush).
      outstanding_.erase(token);
    }
  }
}

}  // namespace mflush
