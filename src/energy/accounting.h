#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"
#include "pipeline/smt_core.h"

/// Turning per-stage squash counters into the paper's energy metrics
/// (Fig. 11 "Wasted Energy", measured in units-to-commit-one-instruction).
namespace mflush::energy {

struct EnergyReport {
  double committed_units = 0.0;  ///< baseline: 1 unit per committed instr
  /// Energy thrown away by the FLUSH mechanism (instructions flushed and
  /// later re-fetched) — the Fig. 11 quantity.
  double flush_wasted_units = 0.0;
  /// Energy thrown away by branch-mispredict squashes (not part of
  /// Fig. 11; reported separately for completeness).
  double branch_wasted_units = 0.0;

  [[nodiscard]] double flush_wasted_per_kilo_commit() const noexcept {
    return committed_units > 0.0
               ? flush_wasted_units / committed_units * 1000.0
               : 0.0;
  }

  bool operator==(const EnergyReport&) const = default;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(committed_units, flush_wasted_units, branch_wasted_units);
  }
};

/// Wasted units for a per-stage squash histogram: each squashed instruction
/// contributes the accumulated factor of the deepest stage it reached.
[[nodiscard]] double wasted_units(
    const std::array<std::uint64_t, kNumPipeStages>& by_stage) noexcept;

/// Build the report for one core's statistics.
[[nodiscard]] EnergyReport report_for(const CoreStats& stats) noexcept;

/// Merge (sum) two reports.
[[nodiscard]] EnergyReport merge(const EnergyReport& a,
                                 const EnergyReport& b) noexcept;

}  // namespace mflush::energy
