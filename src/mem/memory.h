#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/archive.h"
#include "common/config.h"
#include "common/types.h"

namespace mflush {

/// Stat counters every memory model keeps. One audited path for the
/// warm/measure boundary: reset() zeroes counters and ONLY counters —
/// in-flight accesses are simulation state, never stats, so a reset while
/// reads are outstanding must not drop them (tested in
/// test_mem_components). save/load serialize every field; the row/far
/// counters stay zero under the fixed-latency model.
struct MemModelStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;       ///< open-row accesses (DRAM)
  std::uint64_t row_misses = 0;     ///< accesses to an idle bank (DRAM)
  std::uint64_t row_conflicts = 0;  ///< precharge-first accesses (DRAM)
  std::uint64_t far_accesses = 0;   ///< accesses in the far latency class
  std::uint64_t bank_busy_cycles = 0;  ///< summed per-access bank occupancy
  std::uint64_t chan_busy_cycles = 0;  ///< summed channel-gap occupancy

  void reset() noexcept { *this = MemModelStats{}; }

  /// The counts accrued since `earlier`, an earlier copy of these stats.
  [[nodiscard]] MemModelStats since(const MemModelStats& earlier) const noexcept {
    return {reads - earlier.reads,
            writes - earlier.writes,
            row_hits - earlier.row_hits,
            row_misses - earlier.row_misses,
            row_conflicts - earlier.row_conflicts,
            far_accesses - earlier.far_accesses,
            bank_busy_cycles - earlier.bank_busy_cycles,
            chan_busy_cycles - earlier.chan_busy_cycles};
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(reads, writes, row_hits, row_misses, row_conflicts, far_accesses,
          bank_busy_cycles, chan_busy_cycles);
  }
};

/// Non-owning predicate over read payloads: a plain function pointer and
/// the callable it calls, so a query through the virtual MemoryModel seam
/// costs one indirect call per payload and no type-erasure bookkeeping.
/// It refers to its callable, which must outlive it (a temporary lambda
/// argument lives to the end of the call).
class PayloadPred {
 public:
  template <class F>
    requires std::is_invocable_r_v<bool, const F&, std::uint64_t>
  PayloadPred(const F& f)
      : ctx_(&f), call_([](const void* ctx, std::uint64_t payload) {
          return static_cast<bool>((*static_cast<const F*>(ctx))(payload));
        }) {}

  bool operator()(std::uint64_t payload) const { return call_(ctx_, payload); }

 private:
  const void* ctx_;
  bool (*call_)(const void*, std::uint64_t);
};

/// Main-memory timing model seam (selected by MemConfig::memory_model).
///
/// The hierarchy hands every L2 miss to start_read and every dirty L2
/// victim to start_write with the line address; read payloads pop out of
/// tick() at model-defined cycles. Contract:
///  * completion cycles need NOT be monotone in issue order — the banked
///    DRAM model reorders freely; horizon queries go through
///    next_done_if (earliest-due-matching), never "first in flight";
///  * next_event_cycle() is exact (the kernel jumps straight to it);
///  * reset_stats() zeroes stat counters through MemModelStats::reset()
///    and must not touch in-flight state;
///  * save/load serialize all mutable state (in-flight + counters) —
///    part of the snapshot stream, versioned by snapshot::kFormatVersion.
class MemoryModel {
 public:
  virtual ~MemoryModel() = default;

  /// Start a read of `line`; `payload` pops out of tick() when served.
  virtual void start_read(Addr line, std::uint64_t payload, Cycle now) = 0;

  /// Write-back of a dirty L2 victim: fire-and-forget (no completion),
  /// but may occupy model resources and delay later reads.
  virtual void start_write(Addr line, Cycle now) = 0;

  /// Append every read payload served at or before `now` to `done`.
  virtual void tick(Cycle now, std::vector<std::uint64_t>& done) = 0;

  /// Next cycle at which tick() will deliver anything; kNeverCycle when
  /// nothing is in flight. Feeds the event kernel's idle skip.
  [[nodiscard]] virtual Cycle next_event_cycle() const = 0;

  /// Earliest delivery among in-flight reads whose payload matches `pred`;
  /// kNeverCycle when none. O(outstanding) scan — idle-time per-core
  /// horizon queries only, never the per-cycle path (virtual dispatch
  /// forbids a template here, hence the non-owning PayloadPred).
  [[nodiscard]] virtual Cycle next_done_if(PayloadPred pred) const = 0;

  [[nodiscard]] virtual std::size_t outstanding() const = 0;
  [[nodiscard]] virtual const MemModelStats& stats() const = 0;

  /// Zero the stat counters (start of a measured interval). In-flight
  /// accesses are untouched — see MemModelStats.
  virtual void reset_stats() = 0;

  virtual void save_state(ArchiveWriter& ar) const = 0;
  virtual void load_state(ArchiveReader& ar) = 0;
};

/// Fixed-latency fully-pipelined main memory (Fig. 1) — the default model,
/// bit-identical to the pre-seam simulator.
///
/// The fixed latency makes completion times monotone in issue order, so
/// in-flight reads are a plain FIFO: start_read appends, tick pops the
/// front while due — no priority queue, no per-operation log factor.
class FixedLatencyMemory final : public MemoryModel {
 public:
  explicit FixedLatencyMemory(std::uint32_t latency) : latency_(latency) {}

  void start_read(Addr /*line*/, std::uint64_t payload, Cycle now) override {
    in_flight_.push_back(Pending{now + latency_, payload});
    ++stats_.reads;
  }

  void start_write(Addr /*line*/, Cycle /*now*/) override { ++stats_.writes; }

  void tick(Cycle now, std::vector<std::uint64_t>& done) override {
    while (!in_flight_.empty() && in_flight_.front().done_at <= now) {
      done.push_back(in_flight_.front().payload);
      in_flight_.pop_front();
    }
  }

  [[nodiscard]] Cycle next_event_cycle() const override {
    return in_flight_.empty() ? kNeverCycle : in_flight_.front().done_at;
  }

  /// The FIFO is done_at-monotone, so the first match IS the earliest.
  [[nodiscard]] Cycle next_done_if(PayloadPred pred) const override {
    for (const Pending& p : in_flight_)
      if (pred(p.payload)) return p.done_at;
    return kNeverCycle;
  }

  [[nodiscard]] std::size_t outstanding() const override {
    return in_flight_.size();
  }
  [[nodiscard]] const MemModelStats& stats() const override { return stats_; }
  void reset_stats() override { stats_.reset(); }

  void save_state(ArchiveWriter& ar) const override { ar.walk(*this); }
  void load_state(ArchiveReader& ar) override { ar.walk(*this); }
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(in_flight_, stats_);
  }

  /// Serialized by raw memcpy (two 8-byte scalars — no padding).
  struct Pending {
    Cycle done_at;
    std::uint64_t payload;
  };

 private:
  std::uint32_t latency_;  // lint: transient — ctor config
  std::deque<Pending> in_flight_;
  MemModelStats stats_;
};

/// Build the model selected by cfg.memory_model (defined in memory.cpp so
/// this header does not pull in the DRAM model).
[[nodiscard]] std::unique_ptr<MemoryModel> make_memory_model(
    const MemConfig& cfg);

}  // namespace mflush
