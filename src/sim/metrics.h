#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "energy/accounting.h"

namespace mflush {

/// Chip-level metrics of one measured interval.
struct SimMetrics {
  Cycle cycles = 0;
  std::uint64_t committed = 0;
  double ipc = 0.0;  ///< system throughput: committed instrs / cycle

  std::vector<double> per_thread_ipc;  ///< global thread order

  // FLUSH machinery.
  std::uint64_t flush_events = 0;
  std::uint64_t flushed_instructions = 0;

  // Branch behaviour.
  std::uint64_t branches_resolved = 0;
  std::uint64_t mispredicts = 0;
  [[nodiscard]] double mispredict_rate() const noexcept {
    return branches_resolved
               ? static_cast<double>(mispredicts) /
                     static_cast<double>(branches_resolved)
               : 0.0;
  }

  // Memory behaviour (Fig. 4 inputs).
  double l2_hit_time_mean = 0.0;
  double l2_hit_time_p50 = 0.0;
  double l2_hit_time_p90 = 0.0;
  std::uint64_t l2_hits_observed = 0;
  std::uint64_t l2_misses_observed = 0;

  // Policy detection-quality counters summed over the chip's cores
  // (false-miss analysis, Fig. 5 / the MFLUSH ablation).
  std::uint64_t policy_flushes_on_miss = 0;
  std::uint64_t policy_flushes_on_hit = 0;  ///< "false miss" flushes
  std::uint64_t policy_flushes_on_l1 = 0;
  std::uint64_t policy_stall_events = 0;
  std::uint64_t policy_gate_cycles = 0;

  /// Full L2 load-hit-time distribution (Fig. 4 dispersion analysis);
  /// geometry mirrors MemStats::l2_load_hit_time.
  Histogram l2_hit_time_hist{5.0, 80};

  // Main-memory model behaviour (MemModelStats; all zero under the
  // default fixed-latency model — the latency-spread analysis inputs).
  std::uint64_t dram_row_hits = 0;
  std::uint64_t dram_row_misses = 0;
  std::uint64_t dram_row_conflicts = 0;
  std::uint64_t dram_far_accesses = 0;
  std::uint64_t dram_bank_busy_cycles = 0;  ///< summed bank occupancy
  std::uint64_t dram_chan_busy_cycles = 0;  ///< summed channel occupancy

  // Energy (Fig. 11 inputs).
  energy::EnergyReport energy{};

  /// Exact equality over every field — the cross-backend / serial-parallel
  /// determinism contract ("bit-identical") made testable.
  bool operator==(const SimMetrics&) const = default;

  /// Doubles travel as raw little-endian bytes, so a result that crosses
  /// the process boundary compares bit-identical to one computed
  /// in-process.
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(cycles, committed, ipc, per_thread_ipc, flush_events,
          flushed_instructions, branches_resolved, mispredicts,
          l2_hit_time_mean, l2_hit_time_p50, l2_hit_time_p90,
          l2_hits_observed, l2_misses_observed, policy_flushes_on_miss,
          policy_flushes_on_hit, policy_flushes_on_l1, policy_stall_events,
          policy_gate_cycles, l2_hit_time_hist, dram_row_hits,
          dram_row_misses, dram_row_conflicts, dram_far_accesses,
          dram_bank_busy_cycles, dram_chan_busy_cycles, energy);
  }
};

}  // namespace mflush
