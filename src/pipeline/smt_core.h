#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "branch/unit.h"
#include "common/archive.h"
#include "common/config.h"
#include "common/types.h"
#include "common/wheel.h"
#include "core/fetch_policy.h"
#include "mem/hierarchy.h"
#include "pipeline/frontend.h"
#include "pipeline/fu.h"
#include "pipeline/iq.h"
#include "pipeline/regfile.h"
#include "pipeline/rename.h"
#include "pipeline/rob.h"
#include "pipeline/uop.h"
#include "pipeline/wakeup.h"
#include "trace/bbdict.h"
#include "trace/instr.h"

namespace mflush {

/// Why a set of instructions was squashed (separate energy ledgers).
enum class SquashCause : std::uint8_t { BranchMispredict, PolicyFlush };

/// Per-core statistics.
struct CoreStats {
  Cycle cycles = 0;
  std::array<std::uint64_t, kMaxContexts> committed{};
  std::uint64_t fetched = 0;
  std::uint64_t fetched_wrong_path = 0;
  std::uint64_t branches_resolved = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t loads_issued = 0;
  std::uint64_t policy_flush_events = 0;
  /// Instructions squashed by the FLUSH mechanism, per pipeline stage
  /// reached — the Fig. 10/11 energy input.
  std::array<std::uint64_t, kNumPipeStages> policy_flushed_by_stage{};
  std::array<std::uint64_t, kNumPipeStages> branch_squashed_by_stage{};

  /// Dispatch head-of-line blocker events (diagnosis).
  std::uint64_t dispatch_blocked_young = 0;
  std::uint64_t dispatch_blocked_rob = 0;
  std::uint64_t dispatch_blocked_iq_int = 0;
  std::uint64_t dispatch_blocked_iq_fp = 0;
  std::uint64_t dispatch_blocked_iq_mem = 0;
  std::uint64_t dispatch_blocked_regs = 0;
  std::uint64_t instructions_issued = 0;

  [[nodiscard]] std::uint64_t committed_total() const noexcept {
    std::uint64_t s = 0;
    for (const auto c : committed) s += c;
    return s;
  }
  [[nodiscard]] std::uint64_t policy_flushed_total() const noexcept {
    std::uint64_t s = 0;
    for (const auto c : policy_flushed_by_stage) s += c;
    return s;
  }

  /// The counts accrued since `earlier`, an earlier copy of these stats
  /// (every field is a plain accumulator).
  [[nodiscard]] CoreStats since(const CoreStats& earlier) const noexcept {
    const auto minus = [](auto a, const auto& b) {
      for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
      return a;
    };
    CoreStats d;
    d.cycles = cycles - earlier.cycles;
    d.committed = minus(committed, earlier.committed);
    d.fetched = fetched - earlier.fetched;
    d.fetched_wrong_path = fetched_wrong_path - earlier.fetched_wrong_path;
    d.branches_resolved = branches_resolved - earlier.branches_resolved;
    d.mispredicts = mispredicts - earlier.mispredicts;
    d.loads_issued = loads_issued - earlier.loads_issued;
    d.policy_flush_events = policy_flush_events - earlier.policy_flush_events;
    d.policy_flushed_by_stage =
        minus(policy_flushed_by_stage, earlier.policy_flushed_by_stage);
    d.branch_squashed_by_stage =
        minus(branch_squashed_by_stage, earlier.branch_squashed_by_stage);
    d.dispatch_blocked_young =
        dispatch_blocked_young - earlier.dispatch_blocked_young;
    d.dispatch_blocked_rob = dispatch_blocked_rob - earlier.dispatch_blocked_rob;
    d.dispatch_blocked_iq_int =
        dispatch_blocked_iq_int - earlier.dispatch_blocked_iq_int;
    d.dispatch_blocked_iq_fp =
        dispatch_blocked_iq_fp - earlier.dispatch_blocked_iq_fp;
    d.dispatch_blocked_iq_mem =
        dispatch_blocked_iq_mem - earlier.dispatch_blocked_iq_mem;
    d.dispatch_blocked_regs =
        dispatch_blocked_regs - earlier.dispatch_blocked_regs;
    d.instructions_issued = instructions_issued - earlier.instructions_issued;
    return d;
  }
};

/// One out-of-order SMT core (Fig. 1 core parameters), tied to the shared
/// memory hierarchy and driven cycle-by-cycle by the CMP simulator.
///
/// Stage order within one tick (backwards through the pipe so each
/// instruction moves at most one stage per cycle):
///   memory completions → commit → writeback/branch-resolve → issue →
///   dispatch(rename) → policy.on_cycle → fetch.
class SmtCore final : public CoreControl {
 public:
  SmtCore(CoreId id, const SimConfig& cfg, MemoryHierarchy& mem,
          std::unique_ptr<FetchPolicy> policy,
          std::vector<TraceSource*> traces);

  void tick(Cycle now);

  /// Local-clock horizon: the earliest future cycle at which ticking this
  /// core might NOT be a guaranteed no-op, assuming no shared-memory event
  /// (completion, L2-path/L2-miss notification) is delivered first — a
  /// delivery is the rendezvous that invalidates the horizon. `now + 1`
  /// means the core must tick every cycle; anything later lets the
  /// scheduler (CmpSimulator::run) put the core to sleep and credit the
  /// skipped cycles via advance_idle().
  ///
  /// The no-op proof covers pipelines that still hold instructions (a
  /// flushed thread's offending load, a stalled thread's in-flight
  /// window): nothing executing locally, every context's fetch
  /// hard-blocked, dispatch heads blocked (too young — a horizon — or
  /// stuck on frozen ROB/IQ/register capacity), commit heads stuck, no
  /// queued uop issuable with the register file frozen, and the policy
  /// heartbeat quiescent through its own horizon.
  [[nodiscard]] Cycle next_local_event(Cycle now) const;

  /// Convenience for tests: the next tick is a provable no-op.
  [[nodiscard]] bool skippable(Cycle now) const {
    return next_local_event(now) > now + 1;
  }

  /// Account `cycles` idle cycles skipped by the event kernel, covering
  /// the window (from, from + cycles]: credits the cycle counter and
  /// replays the dispatch-stage blocker diagnosis counters those no-op
  /// ticks would have recorded (the blocking state is frozen while
  /// asleep, so one classification covers the whole window).
  void advance_idle(Cycle from, Cycle cycles) noexcept;

  /// Snapshot support: serialize/restore all mutable core state (including
  /// the policy's). The core must have been built from the same config.
  /// load_state restores the serialized state only: call
  /// rebuild_derived_state() before the next tick.
  void save_state(ArchiveWriter& ar) const;
  void load_state(ArchiveReader& ar);
  template <class Ar>
  void fields(Ar& ar);

  /// Recompute the state derived from the serialized pipeline: the operand
  /// wakeup (wait lists, pending-source counts, ready lists) and the
  /// cached policy horizon. None of it is serialized, so snapshot bytes do
  /// not depend on it.
  void rebuild_derived_state();

  // CoreControl (policy response actions)
  bool flush_after_load(std::uint64_t mem_token) override;
  bool stall_until_load(std::uint64_t mem_token) override;
  void set_fetch_gate(ThreadId tid, bool gated) override;

  [[nodiscard]] const CoreStats& stats() const noexcept { return stats_; }
  /// Zero the core's statistics and its policy's counters.
  void reset_stats() {
    stats_ = CoreStats{};
    policy_->reset_counters();
  }
  [[nodiscard]] const FetchPolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] std::uint32_t num_threads() const noexcept {
    return static_cast<std::uint32_t>(traces_.size());
  }
  [[nodiscard]] CoreId id() const noexcept { return id_; }

  // Introspection for tests.
  [[nodiscard]] const UopPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const BranchUnit& branch_unit() const noexcept {
    return branch_;
  }
  [[nodiscard]] std::uint32_t preissue_count(ThreadId t) const noexcept {
    return static_cast<std::uint32_t>(frontend_[t].size()) + preissue_[t];
  }
  [[nodiscard]] const Rob& rob(ThreadId t) const noexcept { return rob_[t]; }
  [[nodiscard]] const IssueQueue& iq_int() const noexcept { return iq_int_; }
  [[nodiscard]] const IssueQueue& iq_fp() const noexcept { return iq_fp_; }
  [[nodiscard]] const IssueQueue& iq_mem() const noexcept { return iq_mem_; }
  /// Issue candidates of queue `q` (for the mem queue: its unissued
  /// loads), oldest first — the ready list issue selects from.
  [[nodiscard]] std::vector<UopHandle> ready_uops(const IssueQueue& q) const;
  [[nodiscard]] std::uint32_t free_int_regs() const noexcept {
    return int_regs_.free_count();
  }
  [[nodiscard]] std::uint32_t free_fp_regs() const noexcept {
    return fp_regs_.free_count();
  }
  [[nodiscard]] bool fetch_blocked(ThreadId t) const noexcept {
    return fstate_[t].hard_blocked();
  }
  [[nodiscard]] bool fetch_gated(ThreadId t) const noexcept {
    return fstate_[t].gated;
  }

 private:
  /// True when this cycle's tick would be a guaranteed no-op for every
  /// stage: drained pipeline, all contexts hard-blocked, no memory events.
  [[nodiscard]] bool all_threads_stalled() const;

  /// Source readiness from the register file's ready bits. Store
  /// retirement (do_commit and next_local_event's commit clause) uses it;
  /// issue uses the ready lists the operand wakeup keeps instead.
  [[nodiscard]] bool sources_ready(const MicroOp& u) const noexcept;

  /// Enter a queued, unissued non-store uop into operand wakeup, waiting
  /// on each source register not yet ready.
  void enqueue_for_wakeup(UopHandle h);
  /// Mark `r` (the destination of logical `dst`) ready and wake its
  /// consumers — besides register allocation, the only writer of a ready
  /// bit.
  void write_reg(LogReg dst, PhysReg r);
  /// Run the policy heartbeat unless its cached quiescence horizon is
  /// still ahead and no load-lifecycle callback arrived since the last run.
  void policy_heartbeat(Cycle now);
#ifndef NDEBUG
  /// Debug cross-check: the ready lists equal a brute-force scan of the
  /// queues for unissued non-store uops whose sources are ready.
  void check_ready_lists() const;
  /// Debug reference for a skipped heartbeat: on_cycle must be an exact
  /// no-op there (no CoreControl call, unchanged saved policy state).
  void check_skipped_heartbeat(Cycle now);
#endif

  void do_memory_completions(Cycle now);
  void do_commit(Cycle now);
  void do_writeback(Cycle now);
  void do_issue(Cycle now);
  void do_dispatch(Cycle now);
  void do_fetch(Cycle now);

  /// Fetch up to `budget` instructions for thread `t`; returns count.
  std::uint32_t fetch_thread(ThreadId t, std::uint32_t budget, Cycle now);

  /// Squash everything of `t` strictly younger than `older_order`.
  void squash_younger_than(ThreadId t, std::uint64_t older_order,
                           SquashCause cause);
  void remove_squashed_uop(UopHandle h, SquashCause cause, Cycle now);
  [[nodiscard]] PipeStage occupancy_stage(const MicroOp& u, Cycle now) const;
  [[nodiscard]] IssueQueue& queue_for(InstrClass cls) noexcept;
  [[nodiscard]] const IssueQueue& queue_for(InstrClass cls) const noexcept {
    return const_cast<SmtCore*>(this)->queue_for(cls);
  }

  CoreId id_;      // lint: transient — ctor identity
  SimConfig cfg_;  // lint: transient — ctor config
  // fetch+decode+rename stage count
  std::uint32_t fe_depth_;  // lint: transient — ctor config
  // Bounded fetch buffer per thread: fetch stalls when the front-end backs
  // up (also capping how far a wrong path runs ahead of its branch). It
  // covers the full front-end delay (fe_depth cycles at fetch_width) plus
  // slack, or fetch could not stream.
  std::size_t fe_cap_;  // lint: transient — ctor config
  MemoryHierarchy& mem_;
  std::unique_ptr<FetchPolicy> policy_;
  // lint: transient — rebound by the owning chip on restore
  std::vector<TraceSource*> traces_;

  BranchUnit branch_;
  // lint: transient — rebuilt deterministically from the trace seed
  BasicBlockDictionary bbdict_;
  UopPool pool_;
  PhysRegFile int_regs_;
  PhysRegFile fp_regs_;
  std::vector<RenameMap> rename_;
  std::vector<Rob> rob_;
  IssueQueue iq_int_;
  IssueQueue iq_fp_;
  IssueQueue iq_mem_;
  FuBudget fu_;  // lint: transient — per-cycle budget, reset each tick

  std::vector<FrontEndQueue> frontend_;
  std::vector<ThreadFetchState> fstate_;
  std::vector<std::uint32_t> preissue_;  ///< in-IQ, not yet issued, per thread
  std::vector<std::uint32_t> inflight_ctrl_;   ///< BRCOUNT metric
  std::vector<std::uint32_t> inflight_dmiss_;  ///< L1DMISSCOUNT metric

  /// A scheduled execution completion. The generation detects entries whose
  /// uop was squashed and whose pool slot was re-allocated before the
  /// wheel bucket came around again.
  struct ExecEntry {
    UopHandle h;
    std::uint32_t gen;
  };
  WakeupWheel<ExecEntry> exec_wheel_{64};  ///< issued, completing at ready_at
  std::uint32_t exec_live_ = 0;  ///< wheel entries whose uop is still live
  /// Not-yet-issued loads of the mem queue, in age order (the LSQ's other
  /// entries are issued loads awaiting data and stores awaiting commit).
  /// Serialized; restore rebuilds the load ready list from it.
  std::vector<UopHandle> lsq_unissued_;
  std::unordered_map<std::uint64_t, UopHandle> load_by_token_;

  /// Issue candidates per queue (registers numbered int first, then fp).
  OperandWakeup wakeup_;  // lint: transient — derived, rebuilt on restore
  // Policy heartbeat cache: on_cycle is skipped before policy_wake_ unless
  // a load-lifecycle callback arrived since its last run.
  static constexpr Cycle kNoHorizon = 0;  ///< not computed since last run
  Cycle policy_wake_ = kNoHorizon;  // lint: transient — derived cache
  bool policy_dirty_ = true;  // lint: transient — derived, set on restore

  std::vector<ExecEntry> scratch_due_;     // lint: transient — scratch
  std::vector<UopHandle> scratch_ready_;   // lint: transient — scratch

  Cycle now_ = 0;
  CoreStats stats_;
};

}  // namespace mflush
