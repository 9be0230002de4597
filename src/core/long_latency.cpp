#include "core/long_latency.h"

#include "common/archive.h"

namespace mflush {

void OutstandingLoads::fire(Cycle now, CoreControl& ctrl) {
  // Collect first, then act oldest first: a flush squashes everything
  // younger than its load.
  due_.clear();
  for (const Load& l : loads_)
    if (now >= l.deadline && !fired(l.tid)) due_.push_back(l);
  if (due_.empty()) return;
  std::sort(due_.begin(), due_.end(), [](const Load& a, const Load& b) {
    return a.issue != b.issue ? a.issue < b.issue : a.token < b.token;
  });
  for (const Load& l : due_) {
    if (fired(l.tid)) continue;  // an older load of the thread fired
    const bool acted = response_ == ResponseAction::Flush
                           ? ctrl.flush_after_load(l.token)
                           : ctrl.stall_until_load(l.token);
    if (!acted) {
      erase(l.token);  // completed or squashed by an older flush
      continue;
    }
    fired_[l.tid] = l.token;
    if (response_ == ResponseAction::Stall) ++counters_.stall_events;
  }
}

void OutstandingLoads::resolve(ThreadId tid, std::uint64_t token,
                               bool l2_accessed, bool l2_hit) {
  erase(token);
  if (fired_[tid] != token) return;
  fired_[tid] = 0;
  if (response_ != ResponseAction::Flush) return;
  if (!l2_accessed)
    ++counters_.flushes_on_l1;
  else if (l2_hit)
    ++counters_.flushes_on_hit;  // false miss
  else
    ++counters_.flushes_on_miss;
}

void OutstandingLoads::erase(std::uint64_t token) noexcept {
  for (Load& l : loads_) {
    if (l.token == token) {
      l = loads_.back();
      loads_.pop_back();
      return;
    }
  }
}

LongLatencyPolicy::LongLatencyPolicy(DetectionMoment dm, Cycle trigger,
                                     ResponseAction response)
    : dm_(dm),
      trigger_(trigger),
      name_(std::string(response == ResponseAction::Flush ? "FLUSH" : "STALL") +
            (dm == DetectionMoment::NonSpec ? "-NS"
                                            : "-S" + std::to_string(trigger))),
      loads_(response) {}

void LongLatencyPolicy::on_load_issued(ThreadId tid, std::uint64_t token,
                                       std::uint32_t /*l2_bank*/, Cycle now) {
  loads_.track(tid, token, now,
               dm_ == DetectionMoment::SpecDelay ? now + trigger_
                                                 : kNeverCycle);
}

void LongLatencyPolicy::on_load_l2_miss(ThreadId /*tid*/, std::uint64_t token,
                                        std::uint32_t /*bank*/,
                                        Cycle /*now*/) {
  if (dm_ == DetectionMoment::NonSpec) loads_.arm(token, trigger_);
}

void LongLatencyPolicy::save_state(ArchiveWriter& ar) const {
  ar.walk(*this);
}
void LongLatencyPolicy::load_state(ArchiveReader& ar) { ar.walk(*this); }

}  // namespace mflush
