#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"

/// The paper's primary subject: SMT instruction-fetch policies.
///
/// A policy owns two decisions every cycle (§3 of the paper):
///   * the *fetch priority order* of the hardware contexts, and
///   * the *response action* for long-latency loads — flushing or stalling
///     offending threads via the CoreControl interface.
namespace mflush {

class ArchiveReader;
class ArchiveWriter;

/// Upper bound on hardware contexts per core (the paper uses 2).
inline constexpr std::uint32_t kMaxContexts = 8;

/// Per-cycle core state visible to the policy.
struct CoreView {
  /// Instructions in pre-issue stages (fetch..queue) per context — the
  /// ICOUNT metric.
  std::array<std::uint32_t, kMaxContexts> icount{};
  /// Unresolved control instructions per context — the BRCOUNT metric.
  std::array<std::uint32_t, kMaxContexts> brcount{};
  /// Outstanding data-cache misses per context — the L1DMISSCOUNT metric.
  std::array<std::uint32_t, kMaxContexts> misscount{};
  /// Context cannot fetch this cycle (I-cache miss wait or flush wait).
  std::array<bool, kMaxContexts> blocked{};
  std::uint32_t num_threads = 0;
};

/// Control surface the core exposes to its policy (the Response Actions).
class CoreControl {
 public:
  virtual ~CoreControl() = default;

  /// FLUSH RA: squash every instruction of the load's thread younger than
  /// the load, free its resources, and stall the thread's fetch until the
  /// load resolves. Returns false when the load is unknown/already done.
  virtual bool flush_after_load(std::uint64_t mem_token) = 0;

  /// STALL RA: stall the thread's fetch until the load resolves, without
  /// squashing anything.
  virtual bool stall_until_load(std::uint64_t mem_token) = 0;

  /// Preventive gating (MFLUSH's Preventive State): while gated, the
  /// thread fetches nothing but keeps executing what it already holds.
  virtual void set_fetch_gate(ThreadId tid, bool gated) = 0;
};

/// Abstract IFetch policy. Load lifecycle callbacks feed the Detection
/// Moment machinery; fetch_order implements the priority function.
class FetchPolicy {
 public:
  virtual ~FetchPolicy() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Detection-quality counters (false-miss analysis, §3.2 of the paper).
  struct Counters {
    std::uint64_t flushes_on_miss = 0;  ///< offender resolved as L2 miss
    std::uint64_t flushes_on_hit = 0;   ///< offender resolved as L2 hit
                                        ///< ("false miss")
    std::uint64_t flushes_on_l1 = 0;    ///< offender never reached L2 (TLB)
    std::uint64_t stall_events = 0;     ///< STALL response actions
    std::uint64_t gate_cycles = 0;      ///< thread-cycles in Preventive State

    /// The counts accrued since `earlier`, an earlier copy of these
    /// counters.
    [[nodiscard]] Counters since(const Counters& earlier) const noexcept {
      return {flushes_on_miss - earlier.flushes_on_miss,
              flushes_on_hit - earlier.flushes_on_hit,
              flushes_on_l1 - earlier.flushes_on_l1,
              stall_events - earlier.stall_events,
              gate_cycles - earlier.gate_cycles};
    }
  };
  [[nodiscard]] virtual Counters counters() const { return {}; }
  /// Zero counters() (the start of a measured interval).
  virtual void reset_counters() {}

  /// Called once per cycle (after issue, before fetch): the place to
  /// trigger flushes/stalls/gates.
  virtual void on_cycle(Cycle /*now*/, CoreControl& /*ctrl*/) {}

  /// Quiescence horizon: the earliest future cycle at which on_cycle might
  /// NOT be an exact no-op (a CoreControl call, or any state or counter
  /// change), given the policy's current state and assuming no
  /// load-lifecycle callback arrives first. A callback invalidates the
  /// horizon. Two consumers trust it: the event kernel, which sleeps a
  /// core until the horizon (re-querying after any tick that delivered a
  /// callback), and the core's heartbeat, which skips on_cycle before the
  /// horizon while no callback has arrived since the last run — in both
  /// clock modes. Returning `now + 1` means "not quiescent: tick me every
  /// cycle"; kNeverCycle means quiescent until a callback. The horizon
  /// must be sound (never later than the first real action); an unsound
  /// one changes results in lockstep and decoupled execution alike, so
  /// comparing the two modes does not check it. Debug builds run every
  /// skipped on_cycle and assert it is an exact no-op. Priority-only
  /// policies (no on_cycle override) are quiescent forever.
  [[nodiscard]] virtual Cycle quiescent_until(Cycle /*now*/) const {
    return kNeverCycle;
  }

  /// Snapshot support: serialize/restore the policy's mutable state.
  /// Stateless policies keep the no-op defaults.
  virtual void save_state(ArchiveWriter& /*ar*/) const {}
  virtual void load_state(ArchiveReader& /*ar*/) {}

  /// A load left the load/store queue for the cache hierarchy.
  virtual void on_load_issued(ThreadId /*tid*/, std::uint64_t /*token*/,
                              std::uint32_t /*l2_bank*/, Cycle /*now*/) {}

  /// The load missed in L1 and is on its way to the shared L2 (the moment
  /// MFLUSH reads the bank's MCReg).
  virtual void on_load_l2_path(ThreadId /*tid*/, std::uint64_t /*token*/,
                               std::uint32_t /*bank*/, Cycle /*now*/) {}

  /// The L2 determined the load misses (FL-NS Detection Moment).
  virtual void on_load_l2_miss(ThreadId /*tid*/, std::uint64_t /*token*/,
                               std::uint32_t /*bank*/, Cycle /*now*/) {}

  /// The load's data arrived (from L2 or memory).
  virtual void on_load_resolved(ThreadId /*tid*/, std::uint64_t /*token*/,
                                Cycle /*issue*/, Cycle /*now*/,
                                bool /*l2_accessed*/, bool /*l2_hit*/,
                                std::uint32_t /*bank*/) {}

  /// Fill `order[0..num_threads)` with context ids, most preferred first.
  virtual void fetch_order(const CoreView& view,
                           std::array<ThreadId, kMaxContexts>& order) = 0;
};

/// Shared helper: ICOUNT ordering (fewest pre-issue instructions first,
/// ties broken by thread id for determinism).
void icount_order(const CoreView& view,
                  std::array<ThreadId, kMaxContexts>& order);

}  // namespace mflush
