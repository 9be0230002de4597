#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/fetch_policy.h"
#include "core/token_table.h"

namespace mflush {

/// STALL (Tullsen & Brown, MICRO-34): like speculative FLUSH but the
/// response action only stops fetching for the offending thread — already
/// fetched instructions keep their resources. Cheaper in energy, weaker at
/// freeing resources; included as the philosophical ancestor of MFLUSH's
/// Preventive State and for ablation benches.
class StallPolicy final : public FetchPolicy {
 public:
  explicit StallPolicy(Cycle trigger);

  [[nodiscard]] const char* name() const noexcept override {
    return name_.c_str();
  }

  void on_cycle(Cycle now, CoreControl& ctrl) override;
  void on_load_issued(ThreadId tid, std::uint64_t token,
                      std::uint32_t l2_bank, Cycle now) override;
  void on_load_resolved(ThreadId tid, std::uint64_t token, Cycle issue,
                        Cycle now, bool l2_accessed, bool l2_hit,
                        std::uint32_t bank) override;

  void fetch_order(const CoreView& view,
                   std::array<ThreadId, kMaxContexts>& order) override {
    icount_order(view, order);
  }

  [[nodiscard]] Cycle trigger() const noexcept { return trigger_; }

  /// See FlushPolicy::quiescent_until — SpecDelay-style deadlines only.
  [[nodiscard]] Cycle quiescent_until(Cycle now) const override;
  void save_state(ArchiveWriter& ar) const override;
  void load_state(ArchiveReader& ar) override;
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(outstanding_, stall_token_);
  }

  /// Explicit padding because outstanding_ entries are serialized by raw
  /// memcpy inside TokenTable, which accepts only records without padding
  /// holes (RawArchivable, common/archive.h).
  struct Outstanding {
    ThreadId tid = 0;
    std::uint8_t _pad0[4] = {};  ///< explicit padding: canonical bytes
    Cycle issue = 0;
  };

 private:
  Cycle trigger_;     // lint: transient — ctor config
  std::string name_;  // lint: transient — ctor config
  TokenTable<Outstanding> outstanding_;
  std::array<std::uint64_t, kMaxContexts> stall_token_{};
  // per-cycle scratch (kept across cycles so on_cycle never allocates)
  // lint: transient — per-cycle scratch, cleared at each use
  std::vector<std::pair<Cycle, std::uint64_t>> by_age_;
  // lint: transient — per-cycle scratch, cleared at each use
  std::vector<std::uint64_t> fire_;
};

}  // namespace mflush
