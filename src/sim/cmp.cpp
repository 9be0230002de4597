#include "sim/cmp.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/env.h"
#include "trace/spec2000.h"

namespace mflush {

namespace {

/// Process-wide default for the event-skip machinery: MFLUSH_NO_EVENT_SKIP=1
/// forces every simulator into the lockstep loop (the ctest A/B toggle).
bool default_event_skip() {
  static const bool enabled =
      !env::flag_or("MFLUSH_NO_EVENT_SKIP", false);
  return enabled;
}

}  // namespace

void CmpSimulator::build(const std::vector<BenchmarkProfile>& profiles,
                         bool prewarm) {
  if (const std::string err = cfg_.validate(); !err.empty())
    throw std::invalid_argument("invalid SimConfig: " + err);
  if (profiles.size() != cfg_.num_cores * cfg_.core.threads_per_core) {
    throw std::invalid_argument(
        "workload thread count does not match the chip: " + workload_.name);
  }

  const std::uint32_t tpc = cfg_.core.threads_per_core;
  sources_.reserve(profiles.size());
  cores_.reserve(cfg_.num_cores);
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    std::vector<TraceSource*> traces;
    traces.reserve(tpc);
    for (std::uint32_t t = 0; t < tpc; ++t) {
      const std::uint32_t global_tid = c * tpc + t;
      sources_.push_back(std::make_unique<SyntheticTraceSource>(
          profiles[global_tid], cfg_.seed, cfg_.rewind_window(), global_tid));
      traces.push_back(sources_.back().get());
    }
    cores_.push_back(std::make_unique<SmtCore>(
        c, cfg_, mem_, make_policy(policy_, cfg_), std::move(traces)));
  }
  clocks_.resize(cores_.size());
  event_skip_ = default_event_skip();

  if (prewarm && cfg_.prewarm_l2) {
    for (const auto& src : sources_) {
      const auto r = src->regions();
      for (std::uint32_t i = 0; i < r.hot_lines; ++i)
        mem_.prewarm_l2_line(r.hot_base + static_cast<Addr>(i) * 64);
      for (std::uint32_t i = 0; i < r.l2_lines; ++i)
        mem_.prewarm_l2_line(r.l2_base + static_cast<Addr>(i) * 64);
      for (std::uint32_t i = 0; i < r.code_lines; ++i)
        mem_.prewarm_l2_line(r.code_base + static_cast<Addr>(i) * 64);
    }
  }
}

namespace {

std::vector<BenchmarkProfile> resolve_codes(const Workload& workload) {
  std::vector<BenchmarkProfile> profiles;
  profiles.reserve(workload.codes.size());
  for (const char code : workload.codes) {
    const auto p = spec2000::by_code(code);
    if (!p) {
      throw std::invalid_argument(std::string("unknown benchmark code '") +
                                  code + "' in workload " + workload.name);
    }
    profiles.push_back(*p);
  }
  return profiles;
}

}  // namespace

CmpSimulator::CmpSimulator(const SimConfig& cfg, const Workload& workload,
                           const PolicySpec& policy)
    : cfg_(cfg), workload_(workload), policy_(policy), mem_(cfg) {
  build(resolve_codes(workload_), /*prewarm=*/true);
}

CmpSimulator::CmpSimulator(RestoreTarget, const SimConfig& cfg,
                           const Workload& workload, const PolicySpec& policy)
    : cfg_(cfg), workload_(workload), policy_(policy), mem_(cfg) {
  build(resolve_codes(workload_), /*prewarm=*/false);
}

CmpSimulator::CmpSimulator(const Workload& workload, const PolicySpec& policy,
                           std::uint64_t seed)
    : CmpSimulator(
          [&] {
            SimConfig cfg = SimConfig::paper_default(workload.num_cores());
            cfg.seed = seed;
            return cfg;
          }(),
          workload, policy) {}

CmpSimulator::CmpSimulator(const std::vector<BenchmarkProfile>& profiles,
                           const PolicySpec& policy, std::uint64_t seed)
    : CmpSimulator(
          [&] {
            SimConfig cfg = SimConfig::paper_default(
                static_cast<std::uint32_t>(profiles.size()) / 2);
            cfg.seed = seed;
            return cfg;
          }(),
          profiles, policy) {}

CmpSimulator::CmpSimulator(const SimConfig& cfg,
                           const std::vector<BenchmarkProfile>& profiles,
                           const PolicySpec& policy)
    : cfg_(cfg), policy_(policy), mem_(cfg_), profile_built_(true) {
  workload_.name = "custom";
  for (const auto& p : profiles)
    workload_.codes.push_back(p.code == '?' ? 'a' : p.code);
  build(profiles, /*prewarm=*/true);
}

void CmpSimulator::run(Cycle cycles) {
  const Cycle end = now_ + cycles;
  if (!event_skip_) {
    run_lockstep(end);
    return;
  }
  while (now_ < end) {
    ++now_;
    mem_.tick(now_);
    bool all_asleep = true;
    for (CoreId c = 0; c < cores_.size(); ++c) {
      CoreClock& ck = clocks_[c];
      if (ck.asleep) {
        // Rendezvous check: a shared-memory event delivered to this core
        // (or the policy horizon expiring) pulls it back to the chip
        // clock; otherwise its local clock keeps lagging. Before the
        // hierarchy's per-core event horizon, delivery is impossible and
        // even the buffer poll is skipped.
        if (now_ < ck.wake_at) {
          if (now_ < ck.event_check_at) {
            assert(!mem_.has_events(c) &&
                   "memory event delivered before the per-core horizon");
            continue;
          }
          if (!mem_.has_events(c)) continue;
        }
        const Cycle skipped = now_ - 1 - ck.slept_at;
        cores_[c]->advance_idle(ck.slept_at, skipped);
        idle_skipped_ += skipped;
        ck.asleep = false;
      }
      cores_[c]->tick(now_);
      // A quiescence horizon beyond the next cycle puts the core to sleep:
      // every tick until then is a provable no-op (the crediting in
      // advance_idle is all those ticks would have done).
      const Cycle horizon = cores_[c]->next_local_event(now_);
      if (horizon > now_ + 1) {
        ck.asleep = true;
        ck.slept_at = now_;
        ck.wake_at = horizon;
        // Open-ended sleeps (no policy deadline) are worth the one-time
        // per-core horizon scan; deadline sleeps are short, so polling
        // from the start is cheaper than scanning.
        ck.event_check_at = horizon == kNeverCycle
                                ? mem_.next_event_cycle_for(c, now_)
                                : 0;
      } else {
        all_asleep = false;
      }
    }
    if (now_ >= end) break;
    if (!all_asleep) continue;

    // Whole-chip skip: every core is asleep, so only the hierarchy (or a
    // policy horizon) can schedule the next state change; jump straight
    // there. kNeverCycle (a fully inert chip) skips to the interval end.
    Cycle event = mem_.next_event_cycle(now_);
    for (const CoreClock& ck : clocks_)
      event = std::min(event, ck.wake_at);
    const Cycle target = event < end ? event : end;
    if (target > now_ + 1) now_ = target - 1;
  }

  // Interval boundary: re-sync every local clock to the chip clock so
  // metrics and snapshots see fully-credited cycle counters. Sleep state
  // survives into the next run() call.
  for (CoreId c = 0; c < cores_.size(); ++c) {
    CoreClock& ck = clocks_[c];
    if (ck.asleep && ck.slept_at < end) {
      cores_[c]->advance_idle(ck.slept_at, end - ck.slept_at);
      idle_skipped_ += end - ck.slept_at;
      ck.slept_at = end;
    }
  }
}

void CmpSimulator::run_lockstep(Cycle end) {
  // The pre-decoupling loop: tick everything every cycle. The A/B
  // reference for the bit-identity and energy audits. Local clocks are
  // already synced (run() re-syncs at every interval boundary), so waking
  // sleeping cores is free.
  for (CoreClock& ck : clocks_) {
    ck.asleep = false;
    ck.wake_at = kNeverCycle;
    ck.event_check_at = 0;
  }
  while (now_ < end) {
    ++now_;
    mem_.tick(now_);
    for (auto& core : cores_) core->tick(now_);
  }
}

void CmpSimulator::reset_stats() {
  mem_.reset_stats();
  for (auto& core : cores_) core->reset_stats();
}

template <class Ar>
void CmpSimulator::fields(Ar& ar) {
  ar.io(now_, idle_skipped_);
  for (CoreClock& ck : clocks_) ar.io(ck);
  for (auto& src : sources_) ar.io(*src);
  ar.io(mem_);
  for (auto& core : cores_) ar.io(*core);
  ar.on_load([this] {
    for (auto& core : cores_) core->rebuild_derived_state();
  });
}

void CmpSimulator::save_state(ArchiveWriter& ar) const { ar.walk(*this); }
void CmpSimulator::restore_state(ArchiveReader& ar) { ar.walk(*this); }

SimMetrics CmpSimulator::metrics() const {
  Tally zero;
  zero.cores.resize(cores_.size());
  return metrics_between(zero, tally());
}

CmpSimulator::Tally CmpSimulator::tally() const {
  Tally t;
  t.cores.reserve(cores_.size());
  for (const auto& core : cores_)
    t.cores.push_back({core->stats(), core->policy().counters()});
  t.l2_hit_time = mem_.stats().l2_load_hit_time;
  t.l2_misses = mem_.stats().l2_load_misses;
  t.model = mem_.memory_model().stats();
  return t;
}

SimMetrics CmpSimulator::metrics_between(const Tally& from,
                                         const Tally& to) const {
  if (from.cores.size() != cores_.size() || to.cores.size() != cores_.size())
    throw std::invalid_argument("metrics_between: tally of another chip");
  SimMetrics m;
  for (CoreId c = 0; c < cores_.size(); ++c) {
    const CoreStats s = to.cores[c].stats.since(from.cores[c].stats);
    if (c == 0) m.cycles = s.cycles;
    m.committed += s.committed_total();
    for (std::uint32_t t = 0; t < cores_[c]->num_threads(); ++t) {
      m.per_thread_ipc.push_back(
          m.cycles ? static_cast<double>(s.committed[t]) /
                         static_cast<double>(m.cycles)
                   : 0.0);
    }
    m.flush_events += s.policy_flush_events;
    m.flushed_instructions += s.policy_flushed_total();
    m.branches_resolved += s.branches_resolved;
    m.mispredicts += s.mispredicts;
    m.energy = energy::merge(m.energy, energy::report_for(s));
    const FetchPolicy::Counters pc =
        to.cores[c].policy.since(from.cores[c].policy);
    m.policy_flushes_on_miss += pc.flushes_on_miss;
    m.policy_flushes_on_hit += pc.flushes_on_hit;
    m.policy_flushes_on_l1 += pc.flushes_on_l1;
    m.policy_stall_events += pc.stall_events;
    m.policy_gate_cycles += pc.gate_cycles;
  }
  m.ipc = m.cycles ? static_cast<double>(m.committed) /
                         static_cast<double>(m.cycles)
                   : 0.0;

  const Histogram hit_time = to.l2_hit_time.since(from.l2_hit_time);
  m.l2_hit_time_mean = hit_time.mean();
  m.l2_hit_time_p50 = hit_time.quantile(0.5);
  m.l2_hit_time_p90 = hit_time.quantile(0.9);
  m.l2_hits_observed = hit_time.count();
  m.l2_misses_observed = to.l2_misses - from.l2_misses;
  m.l2_hit_time_hist = hit_time;

  const MemModelStats ds = to.model.since(from.model);
  m.dram_row_hits = ds.row_hits;
  m.dram_row_misses = ds.row_misses;
  m.dram_row_conflicts = ds.row_conflicts;
  m.dram_far_accesses = ds.far_accesses;
  m.dram_bank_busy_cycles = ds.bank_busy_cycles;
  m.dram_chan_busy_cycles = ds.chan_busy_cycles;
  return m;
}

}  // namespace mflush
