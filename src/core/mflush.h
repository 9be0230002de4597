#pragma once

#include <cstdint>
#include <vector>

#include "core/fetch_policy.h"
#include "core/long_latency.h"

namespace mflush {

/// Static parameters of the MFLUSH operational environment (Fig. 6).
struct MflushConfig {
  /// MIN: unloaded L2 hit round trip (L1 lat + bus + bank = 22 cycles).
  std::uint32_t min_latency = 22;
  /// MAX: L2 miss resolution (MIN + memory latency).
  std::uint32_t max_latency = 272;
  /// MT = (bus_delay + bank_access_delay) * (num_cores - 1).
  std::uint32_t mt = 0;
  /// Number of shared L2 banks (one MCReg per bank per core).
  std::uint32_t num_banks = 4;

  /// §4.1 extension: "The MCReg registers admit more complex
  /// configurations, involving queues (history length > 1) and more
  /// complex functions to determine the prediction from all queue
  /// entries." The paper evaluates history 1; >1 keeps the last N hit
  /// latencies per bank and predicts with `aggregate`.
  enum class Aggregate : std::uint8_t { Last, Max, Avg };
  std::uint32_t history_len = 1;
  Aggregate aggregate = Aggregate::Last;

  /// Ablation: disable the Preventive State (pure barrier-triggered
  /// flushing).
  bool enable_preventive = true;

  /// Suspicious threshold: accesses outstanding longer than MIN + MT.
  [[nodiscard]] Cycle preventive_threshold() const noexcept {
    return min_latency + mt;
  }
};

/// MFLUSH (the paper's contribution, §4): adaptive FLUSH for CMP+SMT.
///
/// Hardware support (§4.1): one 8-bit MCReg per L2 bank holding the
/// issue→served latency of the last L2 *hit* to that bank, read on every L1
/// miss to predict the access's resolution time.
///
/// Operational environment (Fig. 6):
///   BARRIER   = MCReg[bank] + MIN/2 + MT      (clamped to [MIN+MT, MAX+MT])
///   suspicious: outstanding  > MIN + MT  → Preventive State (fetch gated,
///               thread keeps executing — the STALL philosophy)
///   resolved before Barrier → leave Preventive State
///   outstanding > Barrier   → trigger the FLUSH mechanism
///
/// The Detection Moment is the L2-path callback, which arms the load in the
/// shared outstanding-load engine at issue + Barrier + 1; the engine fires,
/// resolves and sets the horizon as for FLUSH. This class adds the MCReg
/// files, the Barrier formula and the Preventive-State gating.
class MflushPolicy final : public FetchPolicy {
 public:
  explicit MflushPolicy(const MflushConfig& cfg);

  [[nodiscard]] const char* name() const noexcept override { return "MFLUSH"; }

  void on_cycle(Cycle now, CoreControl& ctrl) override;
  void on_load_issued(ThreadId tid, std::uint64_t token,
                      std::uint32_t l2_bank, Cycle now) override;
  void on_load_l2_path(ThreadId tid, std::uint64_t token, std::uint32_t bank,
                       Cycle now) override;
  void on_load_resolved(ThreadId tid, std::uint64_t token, Cycle issue,
                        Cycle now, bool l2_accessed, bool l2_hit,
                        std::uint32_t bank) override;

  void fetch_order(const CoreView& view,
                   std::array<ThreadId, kMaxContexts>& order) override {
    icount_order(view, order);
  }

  /// Current MCReg prediction for a bank (tests/reports): the aggregate
  /// over the bank's history queue.
  [[nodiscard]] std::uint8_t mcreg(std::uint32_t bank) const;
  [[nodiscard]] const MflushConfig& config() const noexcept { return cfg_; }

  /// The Barrier a load entering `bank`'s queue would receive right now.
  [[nodiscard]] Cycle barrier_for_bank(std::uint32_t bank) const;

  [[nodiscard]] Counters counters() const override {
    return loads_.counters();
  }
  void reset_counters() override { loads_.counters() = {}; }

  /// on_cycle fires barriers, evaluates suspicion, and accounts
  /// Preventive-State cycles. An armed fetch gate pins the heartbeat to
  /// every cycle (gate_cycles accrues per tick); otherwise the horizon is
  /// the engine's, with each L2-path load due at its suspicious-threshold
  /// crossing if that comes before its Barrier firing.
  [[nodiscard]] Cycle quiescent_until(Cycle now) const override;
  void save_state(ArchiveWriter& ar) const override;
  void load_state(ArchiveReader& ar) override;
  template <class Ar>
  void fields(Ar& ar) {
    for (McRegFile& file : mcreg_) ar.io(file);
    ar.io(loads_, gated_);
  }

 private:
  /// Per-bank MCReg history: a ring of the last `history_len` observed
  /// L2 hit latencies (history_len == 1 reproduces the paper's register).
  struct McRegFile {
    std::vector<std::uint8_t> samples;  ///< ring, oldest overwritten
    std::uint32_t next = 0;
    std::uint32_t valid = 0;

    template <class Ar>
    void fields(Ar& ar) {
      ar.io(samples, next, valid);
    }
  };

  MflushConfig cfg_;  // lint: transient — ctor config
  std::vector<McRegFile> mcreg_;
  OutstandingLoads loads_{ResponseAction::Flush};
  std::array<bool, kMaxContexts> gated_{};
};

}  // namespace mflush
