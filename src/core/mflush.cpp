#include "core/mflush.h"

#include <algorithm>

#include "common/archive.h"

namespace mflush {

MflushPolicy::MflushPolicy(const MflushConfig& cfg) : cfg_(cfg) {
  cfg_.history_len = std::max(1u, cfg_.history_len);
  const auto init = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(cfg_.min_latency, 255));
  mcreg_.resize(cfg_.num_banks);
  for (auto& file : mcreg_) {
    file.samples.assign(cfg_.history_len, init);
    file.valid = 1;  // the MIN seed counts as one observation
  }
}

std::uint8_t MflushPolicy::mcreg(std::uint32_t bank) const {
  const McRegFile& file = mcreg_.at(bank);
  const std::uint32_t n = std::max(1u, file.valid);
  switch (cfg_.aggregate) {
    case MflushConfig::Aggregate::Last: {
      const std::uint32_t last =
          (file.next + static_cast<std::uint32_t>(file.samples.size()) - 1) %
          file.samples.size();
      return file.samples[last];
    }
    case MflushConfig::Aggregate::Max: {
      std::uint8_t best = 0;
      for (std::uint32_t i = 0; i < n; ++i)
        best = std::max(best, file.samples[i]);
      return best;
    }
    case MflushConfig::Aggregate::Avg: {
      std::uint32_t sum = 0;
      for (std::uint32_t i = 0; i < n; ++i) sum += file.samples[i];
      return static_cast<std::uint8_t>(sum / n);
    }
  }
  return file.samples[0];
}

Cycle MflushPolicy::barrier_for_bank(std::uint32_t bank) const {
  const Cycle raw = static_cast<Cycle>(mcreg(bank)) + cfg_.min_latency / 2 +
                    cfg_.mt;
  const Cycle lo = static_cast<Cycle>(cfg_.min_latency) + cfg_.mt;
  const Cycle hi = static_cast<Cycle>(cfg_.max_latency) + cfg_.mt;
  return std::clamp(raw, lo, hi);
}

void MflushPolicy::on_load_issued(ThreadId tid, std::uint64_t token,
                                  std::uint32_t /*l2_bank*/, Cycle now) {
  loads_.track(tid, token, now, kNeverCycle);
}

void MflushPolicy::on_load_l2_path(ThreadId /*tid*/, std::uint64_t token,
                                   std::uint32_t bank, Cycle /*now*/) {
  // Predict the resolution time from the bank's last observed hit latency
  // and derive this access's Barrier (measured from LSQ issue, like every
  // age in the operational environment); FLUSH fires past it.
  loads_.arm(token, barrier_for_bank(bank) + 1);
}

void MflushPolicy::on_load_resolved(ThreadId tid, std::uint64_t token,
                                    Cycle issue, Cycle now, bool l2_accessed,
                                    bool l2_hit, std::uint32_t bank) {
  if (l2_accessed && l2_hit) {
    // Train the MCReg with the observed hit latency (8-bit saturating).
    const Cycle lat = now - issue;
    McRegFile& file = mcreg_[bank];
    file.samples[file.next] =
        static_cast<std::uint8_t>(std::min<Cycle>(lat, 255));
    file.next = (file.next + 1) % file.samples.size();
    file.valid = std::min<std::uint32_t>(
        file.valid + 1, static_cast<std::uint32_t>(file.samples.size()));
  }
  loads_.resolve(tid, token, l2_accessed, l2_hit);
}

Cycle MflushPolicy::quiescent_until(Cycle now) const {
  for (const bool g : gated_)
    if (g) return now + 1;  // gate_cycles accrues / gate must be re-evaluated
  if (!cfg_.enable_preventive) return loads_.horizon(now);
  const Cycle threshold = cfg_.preventive_threshold();
  return loads_.horizon(now, [threshold](const OutstandingLoads::Load& l) {
    return std::min(l.deadline, l.issue + threshold + 1);  // suspicious
  });
}

void MflushPolicy::save_state(ArchiveWriter& ar) const { ar.walk(*this); }
void MflushPolicy::load_state(ArchiveReader& ar) { ar.walk(*this); }

void MflushPolicy::on_cycle(Cycle now, CoreControl& ctrl) {
  // Suspicion (Fig. 6): an L2-path load older than MIN + MT that has not
  // reached its Barrier yet. A load past its Barrier fires below instead.
  std::array<bool, kMaxContexts> suspicious{};
  const Cycle threshold = cfg_.preventive_threshold();
  for (const OutstandingLoads::Load& l : loads_.loads())
    if (now < l.deadline && l.deadline != kNeverCycle &&
        now - l.issue > threshold)
      suspicious[l.tid] = true;

  loads_.fire(now, ctrl);

  // Preventive State: gate fetch for threads with suspicious accesses.
  // Flushed threads are already fetch-stalled by the core.
  for (ThreadId t = 0; t < kMaxContexts; ++t) {
    const bool want =
        cfg_.enable_preventive && suspicious[t] && !loads_.fired(t);
    if (want) ++loads_.counters().gate_cycles;
    if (want != gated_[t]) {
      ctrl.set_fetch_gate(t, want);
      gated_[t] = want;
    }
  }
}

}  // namespace mflush
