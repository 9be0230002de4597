#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/config.h"
#include "core/fetch_policy.h"

namespace mflush {

/// Declarative description of an IFetch policy, decoupled from the core so
/// workload sweeps can be expressed as data.
struct PolicySpec {
  enum class Kind {
    Icount,
    Brcount,
    MissCount,
    FlushSpec,
    FlushNonSpec,
    Stall,
    Mflush,
  };
  enum class McRegAgg : std::uint8_t { Last, Max, Avg };

  Kind kind = Kind::Icount;
  Cycle trigger = 30;  ///< FL-SX / STALL-SX delay

  // MFLUSH variant knobs (§4.1 extension + ablation).
  std::uint32_t mcreg_history = 1;
  McRegAgg mcreg_agg = McRegAgg::Last;
  bool preventive = true;

  [[nodiscard]] static PolicySpec icount() { return {Kind::Icount, 0}; }
  [[nodiscard]] static PolicySpec brcount() { return {Kind::Brcount, 0}; }
  [[nodiscard]] static PolicySpec misscount() { return {Kind::MissCount, 0}; }
  [[nodiscard]] static PolicySpec flush_spec(Cycle trigger) {
    return {Kind::FlushSpec, trigger};
  }
  [[nodiscard]] static PolicySpec flush_ns() { return {Kind::FlushNonSpec, 0}; }
  [[nodiscard]] static PolicySpec stall(Cycle trigger) {
    return {Kind::Stall, trigger};
  }
  [[nodiscard]] static PolicySpec mflush() { return {Kind::Mflush, 0}; }
  /// §4.1 extension: MCReg history queue of depth `history`, prediction
  /// aggregated with `agg`.
  [[nodiscard]] static PolicySpec mflush_history(std::uint32_t history,
                                                 McRegAgg agg) {
    PolicySpec p{Kind::Mflush, 0};
    p.mcreg_history = history;
    p.mcreg_agg = agg;
    return p;
  }
  /// Ablation: MFLUSH without the Preventive State.
  [[nodiscard]] static PolicySpec mflush_no_preventive() {
    PolicySpec p{Kind::Mflush, 0};
    p.preventive = false;
    return p;
  }

  /// Display name matching the paper's labels (ICOUNT, FLUSH-S30,
  /// FLUSH-NS, STALL-S30, MFLUSH, MFLUSH-H4AVG, MFLUSH-NP, ...).
  [[nodiscard]] std::string label() const;

  /// Parse labels like "icount", "brcount", "l1dmisscount", "flush-s30",
  /// "flush-ns", "stall-s40", "mflush", "mflush-np", "mflush-h4",
  /// "mflush-h4max" (case-insensitive). nullopt on malformed input.
  [[nodiscard]] static std::optional<PolicySpec> parse(std::string_view s);

  bool operator==(const PolicySpec&) const = default;

  template <class Ar>
  void fields(Ar& ar) {
    ar.enum_u8(kind, Kind::Icount, Kind::Mflush, "PolicySpec::kind");
    ar.io(trigger, mcreg_history);
    ar.enum_u8(mcreg_agg, McRegAgg::Last, McRegAgg::Avg,
               "PolicySpec::mcreg_agg");
    ar.flag(preventive, "PolicySpec::preventive");
  }
};

/// Instantiate the policy for one core of an `cfg.num_cores`-core chip.
[[nodiscard]] std::unique_ptr<FetchPolicy> make_policy(const PolicySpec& spec,
                                                       const SimConfig& cfg);

/// One row of the policy registry: the PolicySpec::parse syntax, a parsable
/// example, and what the policy does. This is the single authoritative list
/// behind `mflushsim --list-policies`, kept next to parse()/make_policy so
/// spec files can be authored without reading source.
struct PolicyFamily {
  std::string_view syntax;
  std::string_view example;
  std::string_view description;
};
[[nodiscard]] std::span<const PolicyFamily> policy_families();

}  // namespace mflush
