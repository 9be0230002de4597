#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/fetch_policy.h"
#include "core/token_table.h"

namespace mflush {

/// FLUSH (Tullsen & Brown, MICRO-34) on top of ICOUNT ordering.
///
/// Detection Moment (§3 of the paper):
///  * SpecDelay (FL-SX): a load is declared an L2 miss once it has been
///    outstanding more than `trigger` cycles after issuing from the LSQ.
///  * NonSpec (FL-NS): wait until the L2 bank determines the miss.
///
/// Response Action: squash the offending thread's younger instructions,
/// free its resources, stall its fetch until the load resolves.
class FlushPolicy final : public FetchPolicy {
 public:
  enum class DetectionMoment { SpecDelay, NonSpec };

  FlushPolicy(DetectionMoment dm, Cycle trigger);

  [[nodiscard]] const char* name() const noexcept override {
    return name_.c_str();
  }

  void on_cycle(Cycle now, CoreControl& ctrl) override;
  void on_load_issued(ThreadId tid, std::uint64_t token,
                      std::uint32_t l2_bank, Cycle now) override;
  void on_load_l2_miss(ThreadId tid, std::uint64_t token, std::uint32_t bank,
                       Cycle now) override;
  void on_load_resolved(ThreadId tid, std::uint64_t token, Cycle issue,
                        Cycle now, bool l2_accessed, bool l2_hit,
                        std::uint32_t bank) override;

  void fetch_order(const CoreView& view,
                   std::array<ThreadId, kMaxContexts>& order) override {
    icount_order(view, order);
  }

  [[nodiscard]] DetectionMoment detection_moment() const noexcept {
    return dm_;
  }
  [[nodiscard]] Cycle trigger() const noexcept { return trigger_; }
  [[nodiscard]] Counters counters() const override { return counters_; }

  /// on_cycle only acts on outstanding loads. SpecDelay entries fire at a
  /// computable deadline (issue + trigger); NonSpec entries fire only after
  /// an on_load_l2_miss callback, which re-queries the horizon anyway.
  /// Already-flushed threads wait on a resolution callback.
  [[nodiscard]] Cycle quiescent_until(Cycle now) const override;
  void save_state(ArchiveWriter& ar) const override;
  void load_state(ArchiveReader& ar) override;
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(outstanding_, flush_token_, counters_);
  }

  /// Explicit padding because outstanding_ entries are serialized by raw
  /// memcpy inside TokenTable, which accepts only records without padding
  /// holes (RawArchivable, common/archive.h).
  struct Outstanding {
    ThreadId tid = 0;
    std::uint8_t _pad0[4] = {};  ///< explicit padding: canonical bytes
    Cycle issue = 0;
    bool l2_miss_known = false;  ///< NonSpec trigger armed
    std::uint8_t _pad1[7] = {};  ///< explicit tail padding
  };

 private:
  [[nodiscard]] bool thread_flushed(ThreadId tid) const noexcept {
    return flush_token_[tid] != 0;
  }

  DetectionMoment dm_;  // lint: transient — ctor config
  Cycle trigger_;       // lint: transient — ctor config
  std::string name_;    // lint: transient — ctor config
  TokenTable<Outstanding> outstanding_;
  std::array<std::uint64_t, kMaxContexts> flush_token_{};
  Counters counters_{};
  // per-cycle scratch (kept across cycles so on_cycle never allocates)
  // lint: transient — per-cycle scratch, cleared at each use
  std::vector<std::pair<Cycle, std::uint64_t>> by_age_;
  // lint: transient — per-cycle scratch, cleared at each use
  std::vector<std::uint64_t> fire_;
};

}  // namespace mflush
