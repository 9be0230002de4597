#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

/// Simulation configuration.
///
/// Defaults reproduce Figure 1 of the paper ("Simulation parameters").
/// Every knob the evaluation sweeps is a plain data member so experiments can
/// be expressed as config edits.
namespace mflush {

/// Out-of-order SMT core parameters (Fig. 1, "Core Parameters").
struct CoreConfig {
  std::uint32_t threads_per_core = 2;     ///< hardware contexts per core
  std::uint32_t fetch_width = 8;    ///< instructions fetched per cycle
  std::uint32_t fetch_threads = 2;  ///< threads fetched per cycle (ICOUNT2.8)
  std::uint32_t decode_width = 8;
  std::uint32_t rename_width = 8;
  std::uint32_t issue_width = 8;
  std::uint32_t commit_width = 8;         ///< per thread, per cycle

  // Front-end stage latencies chosen so the total pipeline is 11 stages deep:
  // 3 fetch + 2 decode + 2 rename + 1 queue(dispatch) + 1 regread +
  // 1 execute(min) + 1 regwrite/commit.
  std::uint32_t fetch_stages = 3;
  std::uint32_t decode_stages = 2;
  std::uint32_t rename_stages = 2;

  std::uint32_t int_queue_entries = 64;   ///< shared among contexts
  std::uint32_t fp_queue_entries = 64;
  std::uint32_t mem_queue_entries = 64;   ///< load/store queue

  std::uint32_t int_units = 4;
  std::uint32_t fp_units = 3;
  std::uint32_t ldst_units = 2;

  std::uint32_t int_phys_regs = 320;      ///< shared among contexts
  std::uint32_t fp_phys_regs = 320;

  std::uint32_t rob_entries = 256;        ///< replicated per thread (Fig. 1 *)
  std::uint32_t ras_entries = 100;        ///< replicated per thread (Fig. 1 *)

  // Execution latencies per class.
  std::uint32_t lat_int_alu = 1;
  std::uint32_t lat_int_mul = 3;
  std::uint32_t lat_fp_alu = 4;
  std::uint32_t lat_fp_mul = 6;
  std::uint32_t lat_branch = 1;

  // Branch prediction (Fig. 1: perceptron, 4K local, 256 perceptrons; BTB
  // 256 entries 4-way).
  std::uint32_t perceptron_table = 256;
  std::uint32_t local_history_entries = 4096;
  std::uint32_t history_bits = 24;
  std::uint32_t btb_entries = 256;
  std::uint32_t btb_ways = 4;

  bool model_wrong_path = true;  ///< fetch down mispredicted paths (bbdict)

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(threads_per_core, fetch_width, fetch_threads, decode_width,
          rename_width, issue_width, commit_width, fetch_stages, decode_stages,
          rename_stages, int_queue_entries, fp_queue_entries,
          mem_queue_entries, int_units, fp_units, ldst_units, int_phys_regs,
          fp_phys_regs, rob_entries, ras_entries, lat_int_alu, lat_int_mul,
          lat_fp_alu, lat_fp_mul, lat_branch, perceptron_table,
          local_history_entries, history_bits, btb_entries, btb_ways);
    ar.flag(model_wrong_path, "CoreConfig::model_wrong_path");
  }
};

/// Which timing model backs main memory (mem/memory.h seam).
enum class MemModelKind : std::uint8_t {
  /// Fixed-latency fully-pipelined FIFO — the paper's Fig. 1 memory and
  /// the default; bit-identical to the pre-seam simulator.
  Fixed = 0,
  /// Banked DRAM: channels x banks, per-bank row buffers, a channel-level
  /// ready-time arbiter, and an optional far-memory latency class.
  BankedDram = 1,
};

/// Banked-DRAM timing knobs (MemModelKind::BankedDram only; the fixed
/// model uses MemConfig::memory_latency alone).
///
/// Address mapping (line-granular, all counts powers of two):
///   block   = line_addr / line_bytes
///   channel = block % channels
///   bank    = (block / channels) % banks_per_channel
///   row     = block / (channels * banks_per_channel * lines_per_row)
/// so consecutive lines interleave across channels then banks, and each
/// bank sees consecutive in-bank blocks share a row buffer for
/// row_bytes * channels * banks_per_channel contiguous bytes of footprint.
struct DramConfig {
  std::uint32_t channels = 2;          ///< independent channels
  std::uint32_t banks_per_channel = 8;
  std::uint32_t row_bytes = 2048;      ///< row-buffer size per bank
  std::uint32_t t_row_hit = 80;        ///< open row matches (CAS only)
  std::uint32_t t_row_miss = 250;      ///< bank idle: activate + CAS
  std::uint32_t t_row_conflict = 400;  ///< other row open: precharge first
  /// Per-access channel occupancy: command/data-bus time that serializes
  /// accesses sharing a channel even when they hit different banks.
  std::uint32_t channel_gap = 4;
  /// Far-memory latency class: accesses whose line address falls in
  /// [far_base, far_base + far_bytes) pay far_extra additional cycles
  /// (CXL-style far tier). far_bytes == 0 disables the class.
  Addr far_base = 0;
  std::uint64_t far_bytes = 0;
  std::uint32_t far_extra = 800;

  bool operator==(const DramConfig&) const = default;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(channels, banks_per_channel, row_bytes, t_row_hit, t_row_miss,
          t_row_conflict, channel_gap, far_base, far_bytes, far_extra);
  }
};

/// Cache hierarchy parameters (Fig. 1, "Cache Hierarchy Parameters").
struct MemConfig {
  std::uint32_t line_bytes = 64;

  std::uint32_t l1i_bytes = 64 * 1024;
  std::uint32_t l1i_ways = 4;
  std::uint32_t l1i_banks = 8;

  std::uint32_t l1d_bytes = 32 * 1024;
  std::uint32_t l1d_ways = 4;
  std::uint32_t l1d_banks = 8;

  std::uint32_t l1_latency = 3;      ///< L1 hit latency (cycles)

  std::uint32_t itlb_entries = 512;  ///< fully associative
  std::uint32_t dtlb_entries = 512;
  std::uint32_t tlb_miss_penalty = 300;
  std::uint32_t page_bytes = 8192;

  std::uint32_t l2_bytes = 4 * 1024 * 1024;
  std::uint32_t l2_ways = 12;
  std::uint32_t l2_banks = 4;
  std::uint32_t l2_bank_latency = 15;  ///< single-ported occupancy per access

  std::uint32_t bus_latency = 4;       ///< L1->L2 request transfer (shared bus)

  std::uint32_t memory_latency = 250;  ///< main memory (pipelined)

  std::uint32_t mshr_entries = 16;     ///< per core, I+D unified

  /// Main-memory timing model selection + DRAM knobs (the seam's axis).
  MemModelKind memory_model = MemModelKind::Fixed;
  DramConfig dram{};

  /// Unloaded L2 hit round trip as seen from load issue:
  /// l1_latency + bus_latency + l2_bank_latency = 3 + 4 + 15 = 22, matching
  /// the paper's "L1 lat./miss 3/22".
  [[nodiscard]] std::uint32_t min_l2_roundtrip() const noexcept {
    return l1_latency + bus_latency + l2_bank_latency;
  }

  /// Worst-case (miss) resolution latency excluding queueing: MAX.
  [[nodiscard]] std::uint32_t max_l2_roundtrip() const noexcept {
    return min_l2_roundtrip() + memory_latency;
  }

  /// The paper's Multicore Traffic term:
  /// MT = (L1_L2_Bus_delay + L2_Bank_Acc_delay) * (Num_Cores - 1).
  [[nodiscard]] std::uint32_t multicore_traffic(
      std::uint32_t num_cores) const noexcept {
    if (num_cores == 0) return 0;
    return (bus_latency + l2_bank_latency) * (num_cores - 1);
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(line_bytes, l1i_bytes, l1i_ways, l1i_banks, l1d_bytes, l1d_ways,
          l1d_banks, l1_latency, itlb_entries, dtlb_entries, tlb_miss_penalty,
          page_bytes, l2_bytes, l2_ways, l2_banks, l2_bank_latency,
          bus_latency, memory_latency, mshr_entries);
    ar.enum_u8(memory_model, MemModelKind::Fixed, MemModelKind::BankedDram,
               "MemConfig::memory_model");
    ar.io(dram);
  }
};

/// Whole-chip configuration.
struct SimConfig {
  std::uint32_t num_cores = 1;
  CoreConfig core{};
  MemConfig mem{};
  std::uint64_t seed = 1;

  /// Pre-install each thread's L2-resident working set into the L2 tags at
  /// construction. The paper warms structures over 120 M-cycle runs; the
  /// scaled-down windows here cannot warm a 4 MB L2 naturally.
  bool prewarm_l2 = true;

  /// Per-run guard: maximum in-flight window the trace source must be able
  /// to rewind over (ROB + front-end slack).
  [[nodiscard]] std::uint32_t rewind_window() const noexcept {
    return core.rob_entries + 4 * core.fetch_width *
                                  (core.fetch_stages + core.decode_stages +
                                   core.rename_stages + 2);
  }

  [[nodiscard]] std::uint32_t total_threads() const noexcept {
    return num_cores * core.threads_per_core;
  }

  /// Paper defaults for an n-core CMP+SMT chip.
  [[nodiscard]] static SimConfig paper_default(std::uint32_t num_cores,
                                               std::uint64_t seed = 1);

  /// Validate invariants; returns an empty string when OK, else a message.
  [[nodiscard]] std::string validate() const;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(num_cores, core, mem, seed);
    ar.flag(prewarm_l2, "SimConfig::prewarm_l2");
  }
};

}  // namespace mflush
