#pragma once

#include <cstdint>
#include <string>

/// Statistical benchmark profiles driving the synthetic trace generator.
///
/// Substitution note (see DESIGN.md §2): the paper uses 300M-instruction
/// SimPoint traces of SPEC2000 compiled for Alpha. We replace each benchmark
/// with a statistical profile whose generated stream reproduces the
/// *behavioural* attributes the evaluation depends on: instruction mix,
/// attainable ILP (dependency distances), branch predictability, and —
/// crucially for this paper — the L1/L2/memory working-set pressure that
/// decides how often a thread blocks on L2 misses.
namespace mflush {

struct BenchmarkProfile {
  std::string name;
  char code = '?';  ///< Fig. 1 single-letter workload code

  // --- instruction mix (fractions of the dynamic stream) ---
  double f_load = 0.25;
  double f_store = 0.12;
  double f_branch = 0.12;    ///< conditional branches
  double f_call_ret = 0.01;  ///< calls+returns (split evenly)
  double f_fp = 0.0;         ///< fraction of *compute* ops that are FP
  double f_mul = 0.10;       ///< fraction of compute ops that are long-latency

  // --- ILP ---
  /// Number of independent dependency strands (interleaved accumulator /
  /// induction chains). The achievable ILP scales with this: one stalled
  /// load freezes roughly 1/strands of the instruction stream.
  std::uint32_t strands = 4;
  /// Mean register dependency distance for cross-strand/old-value operands.
  double dep_mean = 6.0;
  /// Probability a load's address depends on the most recent load result
  /// (pointer chasing — serializes misses, the FLUSH worst case).
  double p_chase = 0.0;

  // --- control behaviour ---
  /// Fraction of branch sites that follow a learnable periodic pattern.
  double predictability = 0.92;
  /// Bias of the non-pattern (noisy) branches.
  double taken_bias = 0.6;
  /// Mean loop period of pattern branches.
  std::uint32_t pattern_period = 8;

  // --- data working sets (cache lines of 64 B) ---
  std::uint32_t hot_lines = 256;       ///< L1-resident hot set
  std::uint32_t l2_lines = 4000;       ///< fits (a share of) L2, misses L1
  std::uint32_t mem_lines = 1 << 18;   ///< exceeds L2 -> memory misses
  /// Region mix for non-streaming accesses (must sum to <= 1; remainder
  /// goes to the hot set).
  double p_l2 = 0.08;
  double p_mem = 0.004;
  /// Fraction of memory accesses that walk a sequential stream.
  double p_stream = 0.15;
  /// Length of the streamed buffer in lines (wraps around).
  std::uint32_t stream_lines = 1 << 14;

  // --- instruction footprint (cache lines of 64 B) ---
  std::uint32_t icache_lines = 192;  ///< static code footprint
  /// Mean basic-block length in instructions (distance between branches is
  /// implied by the mix, this shapes taken-target spread).
  std::uint32_t mean_bb_len = 8;

  /// Sanity: clamp/normalize fractions. Returns a copy.
  [[nodiscard]] BenchmarkProfile normalized() const;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(name, code, f_load, f_store, f_branch, f_call_ret, f_fp, f_mul,
          strands, dep_mean, p_chase, predictability, taken_bias,
          pattern_period, hot_lines, l2_lines, mem_lines, p_l2, p_mem,
          p_stream, stream_lines, icache_lines, mean_bb_len);
  }
};

}  // namespace mflush
