#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/archive.h"
#include "common/config.h"
#include "core/factory.h"
#include "mem/hierarchy.h"
#include "pipeline/smt_core.h"
#include "sim/metrics.h"
#include "sim/workloads.h"
#include "trace/generator.h"

namespace mflush {

class CmpSimulator;

namespace snapshot {
[[nodiscard]] std::unique_ptr<CmpSimulator> make(
    std::span<const std::uint8_t> bytes);
}  // namespace snapshot

/// The full chip: N two-context SMT cores around one shared banked L2,
/// each core running the same IFetch policy — the paper's experimental
/// vehicle.
///
/// Typical use:
///   SimConfig cfg = SimConfig::paper_default(4);
///   CmpSimulator sim(cfg, *workloads::by_name("8W3"), PolicySpec::mflush());
///   sim.run(20'000);            // warm caches/predictors
///   sim.reset_stats();          // start the measured interval
///   sim.run(120'000);
///   SimMetrics m = sim.metrics();
///
/// Or, with no reset, the interval between two tallies:
///   const CmpSimulator::Tally from = sim.tally();
///   sim.run(120'000);
///   SimMetrics m = sim.metrics_between(from, sim.tally());
class CmpSimulator {
 public:
  /// `cfg.num_cores` must equal `workload.num_cores()` (each workload size
  /// maps to a fixed chip per Fig. 1); throws std::invalid_argument
  /// otherwise, or when the config fails validation.
  CmpSimulator(const SimConfig& cfg, const Workload& workload,
               const PolicySpec& policy);

  /// Convenience: derive the chip size from the workload.
  CmpSimulator(const Workload& workload, const PolicySpec& policy,
               std::uint64_t seed = 1);

  /// Run custom benchmark profiles (one per hardware context, in core
  /// order) instead of the SPEC2000 catalog. The chip size is derived from
  /// the profile count.
  CmpSimulator(const std::vector<BenchmarkProfile>& profiles,
               const PolicySpec& policy, std::uint64_t seed = 1);

  /// Profile chip with an explicit config (memory-model sweeps);
  /// `cfg.num_cores` must match the profile count as in the primary ctor.
  CmpSimulator(const SimConfig& cfg,
               const std::vector<BenchmarkProfile>& profiles,
               const PolicySpec& policy);

  /// Advance `cycles` cycles.
  ///
  /// Decoupled per-core clocks: a core whose next tick is a provable no-op
  /// (pipeline drained, contexts hard-blocked, policy quiescent through a
  /// horizon — SmtCore::next_local_event) goes to sleep and its local
  /// clock falls behind the chip clock; it is not ticked again until a
  /// shared-memory rendezvous (the hierarchy delivers it a completion or
  /// L2 event) or its policy horizon expires, at which point the skipped
  /// cycles are credited in one advance_idle() call. One busy core no
  /// longer pins its idle siblings to tick-by-tick execution. When every
  /// core is asleep the chip clock itself jumps to the next hierarchy
  /// event. Results are bit-identical to the cycle-by-cycle loop; only
  /// wall-clock changes (tested against lockstep over the workload×policy
  /// grid). set_event_skip(false) — or the MFLUSH_NO_EVENT_SKIP=1
  /// environment variable — forces the lockstep loop for A/B audits.
  void run(Cycle cycles);

  /// Enable/disable the event-skip machinery for this simulator (default:
  /// on, unless MFLUSH_NO_EVENT_SKIP=1 is set in the environment).
  void set_event_skip(bool enabled) noexcept { event_skip_ = enabled; }
  [[nodiscard]] bool event_skip() const noexcept { return event_skip_; }

  /// Zero all statistics, the policies' counters included (start of a
  /// measured interval).
  void reset_stats();

  /// The metrics since construction or the last reset_stats: the
  /// interval from a zero tally to tally().
  [[nodiscard]] SimMetrics metrics() const;

  /// Every counter metrics() reads, at one instant: each core's stats and
  /// policy counters, the L2 load-hit-time histogram, the L2 load-miss
  /// count and the memory model's stats. All are plain accumulators, so
  /// an interval's metrics are the difference of the tallies at its ends.
  struct Tally {
    struct Core {
      CoreStats stats;
      FetchPolicy::Counters policy;
    };
    std::vector<Core> cores;
    Histogram l2_hit_time = MemStats{}.l2_load_hit_time;
    std::uint64_t l2_misses = 0;
    MemModelStats model;
  };
  [[nodiscard]] Tally tally() const;

  /// The metrics of the interval between two tallies of this chip, `from`
  /// taken first: field for field what reset_stats() at `from` and
  /// metrics() at `to` give (Cmp.TallyDifferenceMatchesReset), without
  /// touching the chip.
  [[nodiscard]] SimMetrics metrics_between(const Tally& from,
                                           const Tally& to) const;

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const Workload& workload() const noexcept { return workload_; }
  [[nodiscard]] const PolicySpec& policy() const noexcept { return policy_; }
  [[nodiscard]] const MemoryHierarchy& memory() const noexcept { return mem_; }
  [[nodiscard]] const SmtCore& core(CoreId c) const { return *cores_.at(c); }
  [[nodiscard]] std::uint32_t num_cores() const noexcept {
    return static_cast<std::uint32_t>(cores_.size());
  }
  [[nodiscard]] Cycle idle_cycles_skipped() const noexcept {
    return idle_skipped_;
  }

  /// True when built from ad-hoc BenchmarkProfiles rather than the
  /// SPEC2000 catalog. Such a chip cannot be reconstructed from a
  /// snapshot's workload codes, so snapshotting it is refused.
  [[nodiscard]] bool profile_built() const noexcept { return profile_built_; }

  /// Snapshot support (sim/snapshot.h wraps these in a versioned file
  /// format): serialize/restore every piece of mutable simulation state —
  /// clock, trace sources, memory hierarchy, cores, policies, stats.
  /// restore_state ends with each core's rebuild_derived_state (its
  /// unserialized scheduling state).
  void save_state(ArchiveWriter& ar) const;
  void restore_state(ArchiveReader& ar);
  template <class Ar>
  void fields(Ar& ar);

  /// Per-core local clock: while `asleep`, the core is not ticked and its
  /// cycle counter lags the chip clock from `slept_at` (the last cycle it
  /// was ticked or credited). `wake_at` is the policy's quiescence
  /// horizon; an event delivery wakes the core earlier. run() re-syncs
  /// every local clock to the chip clock at each interval boundary, so
  /// between run() calls `slept_at == now()` for sleeping cores.
  ///
  /// `event_check_at` is the hierarchy's per-core event horizon captured
  /// at sleep time (MemoryHierarchy::next_event_cycle_for): no event can
  /// reach this core earlier, so the scheduler skips even the buffer
  /// polling until then. A pure polling throttle — it is recomputed, not
  /// serialized; restoring it as 0 (always poll) is behaviour-identical.
  struct CoreClock {
    bool asleep = false;
    Cycle slept_at = 0;
    Cycle wake_at = kNeverCycle;
    Cycle event_check_at = 0;  // lint: transient — polling throttle

    template <class Ar>
    void fields(Ar& ar) {
      ar.flag(asleep, "CoreClock::asleep");
      ar.io(slept_at, wake_at);
      ar.on_load([this] { event_check_at = 0; });
    }
  };
  [[nodiscard]] const CoreClock& core_clock(CoreId c) const {
    return clocks_.at(c);
  }

 private:
  /// A chip built only to be overwritten by restore_state (snapshot::make):
  /// everything the L2 prewarm writes is serialized state, so it skips it.
  struct RestoreTarget {};
  CmpSimulator(RestoreTarget, const SimConfig& cfg, const Workload& workload,
               const PolicySpec& policy);
  friend std::unique_ptr<CmpSimulator> snapshot::make(
      std::span<const std::uint8_t> bytes);

  void build(const std::vector<BenchmarkProfile>& profiles, bool prewarm);
  void run_lockstep(Cycle end);

  SimConfig cfg_;        // lint: transient — ctor config; loader rebuilds chip
  Workload workload_;    // lint: transient — ctor config
  PolicySpec policy_;    // lint: transient — ctor config
  MemoryHierarchy mem_;
  std::vector<std::unique_ptr<SyntheticTraceSource>> sources_;
  std::vector<std::unique_ptr<SmtCore>> cores_;
  std::vector<CoreClock> clocks_;  ///< one local clock per core
  Cycle now_ = 0;
  Cycle idle_skipped_ = 0;  ///< core-cycles skipped by the event kernel
  // lint: transient — run mode, not state: skip on/off is metric-invariant
  bool event_skip_ = true;
  // lint: transient — set by build() in the ctor, before any restore
  bool profile_built_ = false;
};

}  // namespace mflush
