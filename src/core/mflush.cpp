#include "core/mflush.h"

#include <algorithm>
#include <vector>

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
  outstanding_.emplace(token, Outstanding{.tid = tid, .issue = now});
}

void MflushPolicy::on_load_l2_path(ThreadId /*tid*/, std::uint64_t token,
                                   std::uint32_t bank, Cycle /*now*/) {
  Outstanding* o = outstanding_.find(token);
  if (o == nullptr) return;
  o->l2_path = true;
  // Predict the resolution time from the bank's last observed hit latency
  // and derive this access's Barrier (measured from LSQ issue, like every
  // age in the operational environment).
  o->barrier_deadline = o->issue + barrier_for_bank(bank);
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

Cycle MflushPolicy::quiescent_until(Cycle now) const {
  for (const bool g : gated_)
    if (g) return now + 1;  // gate_cycles accrues / gate must be re-evaluated
  Cycle h = kNeverCycle;
  const Cycle threshold = cfg_.preventive_threshold();
  for (const auto& [token, o] : outstanding_.entries()) {
    if (!o.l2_path) continue;  // participates only after the MCReg read
    if (flush_token_[o.tid] != 0) continue;  // waits on resolution
    h = std::min(h, o.barrier_deadline + 1);  // FLUSH fires past the Barrier
    if (cfg_.enable_preventive)
      h = std::min(h, o.issue + threshold + 1);  // becomes suspicious
  }
  return h > now ? h : now + 1;
}

void MflushPolicy::save_state(ArchiveWriter& ar) const { ar.walk(*this); }
void MflushPolicy::load_state(ArchiveReader& ar) { ar.walk(*this); }

void MflushPolicy::on_cycle(Cycle now, CoreControl& ctrl) {
  std::array<bool, kMaxContexts> suspicious{};
  by_age_.clear();

  const Cycle prev_threshold = cfg_.preventive_threshold();
  for (const auto& [token, o] : outstanding_.entries()) {
    if (!o.l2_path) continue;  // only L2 accesses participate (Fig. 6)
    const Cycle age = now - o.issue;
    if (now > o.barrier_deadline && flush_token_[o.tid] == 0) {
      by_age_.emplace_back(o.issue, token);
    } else if (age > prev_threshold) {
      suspicious[o.tid] = true;
    }
  }
  std::sort(by_age_.begin(), by_age_.end());
  fire_.clear();
  for (const auto& [issue, token] : by_age_) fire_.push_back(token);

  for (const std::uint64_t token : fire_) {
    const Outstanding* o = outstanding_.find(token);
    if (o == nullptr) continue;
    const ThreadId tid = o->tid;
    if (flush_token_[tid] != 0) continue;
    if (ctrl.flush_after_load(token)) {
      flush_token_[tid] = token;
    } else {
      outstanding_.erase(token);
    }
  }

  // Preventive State: gate fetch for threads with suspicious accesses.
  // Flushed threads are already fetch-stalled by the core.
  for (ThreadId t = 0; t < kMaxContexts; ++t) {
    const bool want =
        cfg_.enable_preventive && suspicious[t] && flush_token_[t] == 0;
    if (want) ++counters_.gate_cycles;
    if (want != gated_[t]) {
      ctrl.set_fetch_gate(t, want);
      gated_[t] = want;
    }
  }
}

}  // namespace mflush
