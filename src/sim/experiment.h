#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "sim/cmp.h"
#include "sim/metrics.h"
#include "sim/workloads.h"

/// Experiment-running conventions shared by every bench binary.
///
/// The paper simulates a fixed interval of 120 M cycles per run; the bench
/// default is a laptop-scale 1000× reduction (120 k measured cycles after a
/// 30 k warm-up), overridable via MFLUSH_BENCH_CYCLES / MFLUSH_WARMUP_CYCLES.
namespace mflush {

struct RunResult {
  std::string workload;
  std::string policy;
  SimMetrics metrics;

  // Simulator-throughput self-report (filled by run_point): wall-clock time
  // of the whole run and the cycles it simulated (warm-up + measured; a
  // fork's share of its group pass is the cycles the pass ran since the
  // previous result, so a group's forks sum to its last window's end —
  // see run_fork_group).
  double wall_seconds = 0.0;
  Cycle simulated_cycles = 0;

  /// Opaque result payload: set only by warm jobs (JobSpec::warm_only),
  /// which return the captured parent snapshot here instead of measuring.
  /// Travels through the worker result protocol; null for ordinary jobs.
  std::shared_ptr<const std::vector<std::uint8_t>> payload;

  /// Simulated cycles per wall-clock second (0 when not timed).
  [[nodiscard]] double sim_cycles_per_sec() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(simulated_cycles) / wall_seconds
               : 0.0;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(workload, policy, metrics, wall_seconds, simulated_cycles, payload);
  }
};

/// Measured-interval length (env MFLUSH_BENCH_CYCLES or `fallback`).
/// Throws std::runtime_error when the variable is set but malformed.
[[nodiscard]] Cycle bench_cycles(Cycle fallback = 120'000);

/// Warm-up length (env MFLUSH_WARMUP_CYCLES or `fallback`).
/// Throws std::runtime_error when the variable is set but malformed.
[[nodiscard]] Cycle warmup_cycles(Cycle fallback = 30'000);

/// Run one (workload, policy) point: warm up, reset, measure.
[[nodiscard]] RunResult run_point(const Workload& workload,
                                  const PolicySpec& policy,
                                  std::uint64_t seed, Cycle warmup,
                                  Cycle measure);

/// Same, with an explicit chip config (memory-model sweeps). With
/// `SimConfig::paper_default(workload.num_cores(), seed)` this is exactly
/// the seed-form run_point above.
[[nodiscard]] RunResult run_point(const SimConfig& cfg,
                                  const Workload& workload,
                                  const PolicySpec& policy, Cycle warmup,
                                  Cycle measure);

/// Fork a measured interval off a captured snapshot: reconstruct the
/// simulator from `snapshot`, advance `fork_advance` cycles, reset stats,
/// measure `measure` cycles. Deterministic: the same (snapshot,
/// fork_advance, measure) triple always yields identical metrics. This is
/// the one-fork-at-a-time reference that fork jobs, which run in groups
/// (run_fork_group), are tested against.
[[nodiscard]] RunResult run_point_from_snapshot(
    const std::vector<std::uint8_t>& snapshot, Cycle fork_advance,
    Cycle measure);

}  // namespace mflush
