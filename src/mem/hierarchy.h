#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/archive.h"
#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/wheel.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/l2.h"
#include "mem/memory.h"
#include "mem/mshr.h"
#include "mem/tlb.h"

namespace mflush {

/// Completion of an asynchronous memory access (load or ifetch).
struct MemCompletion {
  std::uint64_t token = 0;
  ThreadId tid = 0;
  MemKind kind = MemKind::Load;
  std::uint8_t _pad0[3] = {};  ///< explicit padding: canonical bytes
  Cycle issue_cycle = 0;
  Cycle done_cycle = 0;
  bool l2_accessed = false;  ///< true if the access went past L1
  bool l2_hit = false;       ///< valid when l2_accessed
  std::uint8_t _pad1[2] = {};  ///< explicit padding: canonical bytes
  std::uint32_t l2_bank = 0; ///< valid when l2_accessed
};

/// A *load* leaving L1 for the shared L2 (the moment the MFLUSH hardware
/// reads the bank's MCReg to predict the access's resolution time).
struct L2PathEvent {
  std::uint64_t token = 0;
  ThreadId tid = 0;
  std::uint32_t bank = 0;
  Cycle cycle = 0;
};

/// Aggregate memory-system statistics (feeds Fig. 4).
struct MemStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t ifetches = 0;
  std::uint64_t dtlb_misses = 0;
  std::uint64_t itlb_misses = 0;
  std::uint64_t l1_writebacks = 0;
  /// Issue→served time of loads that HIT in the shared L2 (Fig. 4 metric),
  /// 5-cycle bins up to 400 cycles.
  Histogram l2_load_hit_time{5.0, 80};
  RunningStat l2_load_miss_time;

  void reset() {
    *this = MemStats{};
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(loads, stores, ifetches, dtlb_misses, itlb_misses, l1_writebacks,
          l2_load_hit_time, l2_load_miss_time);
  }
};

/// The full memory system: per-core L1I/L1D + TLBs + MSHR, one shared bus,
/// one shared banked L2, one main memory (a MemoryModel behind a seam:
/// fixed-latency FIFO by default, banked DRAM when configured).
///
/// Protocol per cycle (driven by the CMP simulator):
///   hierarchy.tick(now);            // advance queues, produce completions
///   cores consume completions(c) / l2_events(c), then issue new
///   request_load/request_store/request_ifetch calls at cycle `now`.
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const SimConfig& cfg);

  /// Issue a load from `core`/`tid` at `now`; completion arrives via
  /// completions(). Returns the request token.
  std::uint64_t request_load(CoreId core, ThreadId tid, Addr addr, Cycle now);

  /// Commit-time store: fire-and-forget, but generates real traffic.
  void request_store(CoreId core, ThreadId tid, Addr addr, Cycle now);

  /// Instruction fetch of the line containing `pc`. Returns nullopt on an
  /// L1I hit (fetch proceeds immediately); otherwise the token of the
  /// pending fill.
  std::optional<std::uint64_t> request_ifetch(CoreId core, ThreadId tid,
                                              Addr pc, Cycle now);

  void tick(Cycle now);

  /// Completions/events for core `c` (caller drains then clears).
  [[nodiscard]] std::vector<MemCompletion>& completions(CoreId c) {
    return completions_[c];
  }
  [[nodiscard]] std::vector<L2PathEvent>& l2_events(CoreId c) {
    return l2_events_[c];
  }
  /// FL-NS detection moment: loads whose line was just determined to miss
  /// in L2 (memory access still in flight).
  [[nodiscard]] std::vector<L2PathEvent>& l2_miss_events(CoreId c) {
    return l2_miss_events_[c];
  }

  [[nodiscard]] std::uint32_t l2_bank_of(Addr addr) const noexcept {
    return l2_.bank_of(addr);
  }

  [[nodiscard]] const MemStats& stats() const noexcept { return stats_; }
  void reset_stats();

  /// Earliest future cycle at which tick() can change any state or deliver
  /// any completion; kNeverCycle when the whole hierarchy is drained. When
  /// every core is also asleep, the chip may jump straight here.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const;

  /// True when core `c` has undrained completion/event buffers — the
  /// decoupled scheduler's rendezvous signal: a sleeping core whose buffers
  /// fill must be pulled back to the global clock and ticked this cycle.
  [[nodiscard]] bool has_events(CoreId c) const noexcept {
    return !completions_[c].empty() || !l2_events_[c].empty() ||
           !l2_miss_events_[c].empty();
  }

  /// Per-core event horizon: a lower bound on the next cycle at which
  /// tick() could deliver a completion or event to core `c`, from the
  /// core's in-flight transactions (L1 wheel, MSHR retry queue, bus, L2
  /// banks, memory model). Memory completions are queried via
  /// MemoryModel::next_done_if — the earliest DUE matching access, not the
  /// first in flight, because DRAM completion times are not monotone in
  /// issue order. Contention can only push real delivery later, never
  /// earlier. kNeverCycle when the core has nothing in flight.
  /// O(outstanding) scan — idle-time scheduling only, never the tick path.
  [[nodiscard]] Cycle next_event_cycle_for(CoreId c, Cycle now) const;

  /// Snapshot support: serialize/restore all mutable hierarchy state.
  void save_state(ArchiveWriter& ar) const;
  void load_state(ArchiveReader& ar);
  template <class Ar>
  void fields(Ar& ar);

  /// Warm-start support: install a line into the L2 tag array directly
  /// (no timing, no traffic). The scaled-down simulation windows are far
  /// shorter than the paper's 120 M cycles, so resident working sets are
  /// pre-installed instead of naturally warmed.
  void prewarm_l2_line(Addr addr) { (void)l2_.fill(addr, false); }

  // Component access (tests and detailed reports).
  [[nodiscard]] const SetAssocCache& l1d(CoreId c) const { return l1d_[c]; }
  [[nodiscard]] const SetAssocCache& l1i(CoreId c) const { return l1i_[c]; }
  [[nodiscard]] const Mshr& mshr(CoreId c) const { return mshr_[c]; }
  [[nodiscard]] const L2Cache& l2() const noexcept { return l2_; }
  [[nodiscard]] const SharedBus& bus() const noexcept { return bus_; }
  [[nodiscard]] const MemoryModel& memory_model() const noexcept {
    return *memory_;
  }

  // The two transaction records below carry explicit padding because they
  // are serialized by raw memcpy, which accepts only records without
  // padding holes (RawArchivable, common/archive.h).

  /// Core-side access waiting on the L1 pipeline (and TLB walk).
  struct Req {
    CoreId core = 0;
    ThreadId tid = 0;
    Addr addr = 0;
    MemKind kind = MemKind::Load;
    std::uint8_t _pad[7] = {};  ///< explicit padding: canonical bytes
    std::uint64_t token = 0;
    Cycle issue = 0;
    Cycle ready_at = 0;
    std::uint64_t order = 0;  ///< deterministic same-cycle tie-break
  };

  /// One line-granular transaction on the L2 path.
  struct LineFetch {
    Addr line = 0;
    CoreId core = 0;
    std::uint32_t mshr_slot = 0;
    bool is_writeback = false;
    bool is_ifetch = false;
    bool in_use = false;
    std::uint8_t _pad[5] = {};  ///< explicit tail padding: canonical bytes
  };

 private:
  void process_l1(const Req& r, Cycle now);
  void start_line_fetch(const Req& r, Addr line, Cycle now);
  void complete_line_fetch(std::uint64_t payload, Cycle now, bool l2_hit);
  void push_writeback(CoreId core, Addr line, Cycle now);
  std::uint64_t alloc_fetch_slot();

  SimConfig cfg_;  // lint: transient — ctor config

  std::vector<SetAssocCache> l1i_;
  std::vector<SetAssocCache> l1d_;
  std::vector<Tlb> itlb_;
  std::vector<Tlb> dtlb_;
  std::vector<Mshr> mshr_;
  SharedBus bus_;
  L2Cache l2_;
  std::unique_ptr<MemoryModel> memory_;

  /// L1 pipeline / TLB-walk delay line, bucketed by ready_at. Sized past
  /// l1_latency + tlb_miss_penalty so the far queue stays empty with
  /// paper-default latencies. Strict: every event-skip jump is bounded by
  /// next_event_cycle(), so no entry's release is ever jumped past
  /// (asserted in debug builds).
  WakeupWheel<Req> l1_wheel_{1024, /*strict_release=*/true};
  std::vector<std::deque<Req>> mshr_overflow_;  ///< per core, retried in tick

  std::vector<LineFetch> fetch_pool_;
  std::vector<std::uint64_t> fetch_free_;

  std::vector<std::vector<MemCompletion>> completions_;
  std::vector<std::vector<L2PathEvent>> l2_events_;
  std::vector<std::vector<L2PathEvent>> l2_miss_events_;

  // Scratch buffers reused across ticks; drained within a single tick,
  // so they carry no cross-cycle state.
  std::vector<std::uint64_t> scratch_mem_done_;    // lint: transient — scratch
  std::vector<L2ServiceResult> scratch_l2_done_;   // lint: transient — scratch
  std::vector<std::uint64_t> scratch_bus_done_;    // lint: transient — scratch
  std::vector<Req> scratch_l1_due_;                // lint: transient — scratch

  std::uint64_t next_token_ = 1;
  std::uint64_t next_order_ = 0;
  MemStats stats_;
};

}  // namespace mflush
