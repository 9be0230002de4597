#include "core/factory.h"

#include <algorithm>
#include <cctype>

#include "common/number.h"
#include "core/counts.h"
#include "core/icount.h"
#include "core/long_latency.h"
#include "core/mflush.h"

namespace mflush {

std::string PolicySpec::label() const {
  switch (kind) {
    case Kind::Icount: return "ICOUNT";
    case Kind::Brcount: return "BRCOUNT";
    case Kind::MissCount: return "L1DMISSCOUNT";
    case Kind::FlushSpec: return "FLUSH-S" + std::to_string(trigger);
    case Kind::FlushNonSpec: return "FLUSH-NS";
    case Kind::Stall: return "STALL-S" + std::to_string(trigger);
    case Kind::Mflush: {
      std::string s = "MFLUSH";
      if (mcreg_history > 1) {
        s += "-H" + std::to_string(mcreg_history);
        if (mcreg_agg == McRegAgg::Max) s += "MAX";
        if (mcreg_agg == McRegAgg::Avg) s += "AVG";
      }
      if (!preventive) s += "-NP";
      return s;
    }
  }
  return "?";
}

std::optional<PolicySpec> PolicySpec::parse(std::string_view s) {
  std::string lower(s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "icount") return icount();
  if (lower == "brcount") return brcount();
  if (lower == "l1dmisscount" || lower == "misscount") return misscount();
  if (lower == "mflush") return mflush();
  if (lower == "mflush-np") return mflush_no_preventive();
  if (lower == "flush-ns") return flush_ns();

  // A zero trigger is not a policy.
  auto parse_number = [](std::string_view tail) -> std::optional<Cycle> {
    const auto v = parse_unsigned<Cycle>(tail);
    return v == Cycle{0} ? std::nullopt : v;
  };

  if (lower.starts_with("mflush-h")) {
    std::string_view tail = std::string_view(lower).substr(8);
    // Mirror label() exactly so every label round-trips through parse():
    // optional trailing "-np", then the aggregation suffix (none = Last),
    // then the history depth.
    bool preventive = true;
    if (tail.ends_with("-np")) {
      preventive = false;
      tail.remove_suffix(3);
    }
    McRegAgg agg = McRegAgg::Last;
    if (tail.ends_with("max")) {
      agg = McRegAgg::Max;
      tail.remove_suffix(3);
    } else if (tail.ends_with("avg")) {
      agg = McRegAgg::Avg;
      tail.remove_suffix(3);
    }
    if (const auto h = parse_unsigned<std::uint32_t>(tail); h && *h != 0) {
      PolicySpec p = mflush_history(*h, agg);
      p.preventive = preventive;
      return p;
    }
    return std::nullopt;
  }
  if (lower.starts_with("flush-s")) {
    if (const auto t = parse_number(std::string_view(lower).substr(7)))
      return flush_spec(*t);
    return std::nullopt;
  }
  if (lower.starts_with("stall-s")) {
    if (const auto t = parse_number(std::string_view(lower).substr(7)))
      return stall(*t);
    return std::nullopt;
  }
  return std::nullopt;
}

std::unique_ptr<FetchPolicy> make_policy(const PolicySpec& spec,
                                         const SimConfig& cfg) {
  switch (spec.kind) {
    case PolicySpec::Kind::Icount:
      return std::make_unique<IcountPolicy>();
    case PolicySpec::Kind::Brcount:
      return std::make_unique<BrcountPolicy>();
    case PolicySpec::Kind::MissCount:
      return std::make_unique<L1DMissCountPolicy>();
    case PolicySpec::Kind::FlushSpec:
      return std::make_unique<LongLatencyPolicy>(
          LongLatencyPolicy::DetectionMoment::SpecDelay, spec.trigger,
          ResponseAction::Flush);
    case PolicySpec::Kind::FlushNonSpec:
      return std::make_unique<LongLatencyPolicy>(
          LongLatencyPolicy::DetectionMoment::NonSpec, 0,
          ResponseAction::Flush);
    case PolicySpec::Kind::Stall:
      return std::make_unique<LongLatencyPolicy>(
          LongLatencyPolicy::DetectionMoment::SpecDelay, spec.trigger,
          ResponseAction::Stall);
    case PolicySpec::Kind::Mflush: {
      MflushConfig mc;
      mc.min_latency = cfg.mem.min_l2_roundtrip();
      mc.max_latency = cfg.mem.max_l2_roundtrip();
      mc.mt = cfg.mem.multicore_traffic(cfg.num_cores);
      mc.num_banks = cfg.mem.l2_banks;
      mc.history_len = spec.mcreg_history;
      switch (spec.mcreg_agg) {
        case PolicySpec::McRegAgg::Last:
          mc.aggregate = MflushConfig::Aggregate::Last;
          break;
        case PolicySpec::McRegAgg::Max:
          mc.aggregate = MflushConfig::Aggregate::Max;
          break;
        case PolicySpec::McRegAgg::Avg:
          mc.aggregate = MflushConfig::Aggregate::Avg;
          break;
      }
      mc.enable_preventive = spec.preventive;
      return std::make_unique<MflushPolicy>(mc);
    }
  }
  return nullptr;
}

std::span<const PolicyFamily> policy_families() {
  static constexpr PolicyFamily kFamilies[] = {
      {"icount", "icount",
       "ICOUNT priority fetch (fewest in-flight instructions first)"},
      {"brcount", "brcount",
       "priority by fewest unresolved branches in flight"},
      {"l1dmisscount", "l1dmisscount",
       "priority by fewest outstanding L1D misses"},
      {"flush-s<N>", "flush-s30",
       "speculative FLUSH: squash a thread whose load is outstanding "
       "longer than N cycles"},
      {"flush-ns", "flush-ns",
       "non-speculative FLUSH: squash only on a confirmed L2 miss"},
      {"stall-s<N>", "stall-s30",
       "STALL: stall a thread's fetch (no squash) until its load resolves, "
       "once the load is outstanding N cycles"},
      {"mflush", "mflush",
       "the paper's MFLUSH: per-bank Barrier deadline + Preventive State"},
      {"mflush-np", "mflush-np", "MFLUSH ablation without Preventive State"},
      {"mflush-h<N>[max|avg]", "mflush-h4avg",
       "MFLUSH with an MCReg history queue of depth N, aggregated by "
       "last/max/avg (section 4.1 extension)"},
  };
  return kFamilies;
}

}  // namespace mflush
