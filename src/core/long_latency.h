#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fetch_policy.h"

namespace mflush {

/// What a policy does to the thread of a load it declares an L2 miss
/// (§3 of the paper).
enum class ResponseAction : std::uint8_t {
  Flush,  ///< squash the younger instructions, stall fetch until resolved
  Stall,  ///< stall fetch until resolved, squash nothing
};

/// The one outstanding-load engine behind FLUSH, STALL and MFLUSH.
///
/// The paper splits each long-latency-load policy into a Detection Moment
/// (when a load counts as an L2 miss) and a Response Action. Here the
/// detection moment only sets a tracked load's `deadline`; the engine owns
/// the rest:
///  * fire: every load whose deadline has come, oldest (issue, token)
///    first — the response squashes everything younger than its load —
///    with at most one fired load per thread;
///  * horizon: the earliest armed deadline among unfired threads;
///  * resolve: forget the load, release its thread if it was the fired
///    one, and classify a flushed load by where it was served.
///
/// The table is a flat vector: a handful of in-flight loads (bounded by the
/// LSQ) in contiguous memory beats a node-based map on the per-event
/// lookups and the per-cycle scan. Erase is swap-with-last, so iteration
/// order is insertion order perturbed by erases — deterministic, and the
/// fire loop sorts before acting, so order never influences behaviour.
class OutstandingLoads {
 public:
  /// One tracked load. Serialized by raw memcpy, which accepts only
  /// records without padding holes (RawArchivable, common/archive.h).
  struct Load {
    std::uint64_t token = 0;
    Cycle issue = 0;
    Cycle deadline = kNeverCycle;  ///< fires from here on; never until armed
    ThreadId tid = 0;
    std::uint8_t _pad0[4] = {};  ///< explicit tail padding: canonical bytes
  };

  explicit OutstandingLoads(ResponseAction response) : response_(response) {}

  void track(ThreadId tid, std::uint64_t token, Cycle issue, Cycle deadline) {
    loads_.push_back(
        Load{.token = token, .issue = issue, .deadline = deadline, .tid = tid});
  }

  /// A late Detection Moment: the load fires `delay` cycles after its issue.
  void arm(std::uint64_t token, Cycle delay) noexcept {
    for (Load& l : loads_)
      if (l.token == token) l.deadline = l.issue + delay;
  }

  /// Apply the response action to every load past its deadline.
  void fire(Cycle now, CoreControl& ctrl);

  /// The load's data arrived.
  void resolve(ThreadId tid, std::uint64_t token, bool l2_accessed,
               bool l2_hit);

  /// The earliest `due(load)` among armed loads of unfired threads (by
  /// default the deadline), or `now + 1` once that is not in the future.
  template <class Due>
  [[nodiscard]] Cycle horizon(Cycle now, Due due) const {
    Cycle h = kNeverCycle;
    for (const Load& l : loads_)
      if (l.deadline != kNeverCycle && !fired(l.tid)) h = std::min(h, due(l));
    return h > now ? h : now + 1;
  }
  [[nodiscard]] Cycle horizon(Cycle now) const {
    return horizon(now, [](const Load& l) { return l.deadline; });
  }

  /// A load of the thread fired and has not resolved yet.
  [[nodiscard]] bool fired(ThreadId tid) const noexcept {
    return fired_[tid] != 0;
  }
  [[nodiscard]] const std::vector<Load>& loads() const noexcept {
    return loads_;
  }
  /// Response-action counts; a policy adds its own (MFLUSH's gate cycles).
  [[nodiscard]] FetchPolicy::Counters& counters() noexcept { return counters_; }
  [[nodiscard]] const FetchPolicy::Counters& counters() const noexcept {
    return counters_;
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(loads_, fired_, counters_);
  }

 private:
  void erase(std::uint64_t token) noexcept;

  ResponseAction response_;  // lint: transient — ctor config
  std::vector<Load> loads_;
  std::array<std::uint64_t, kMaxContexts> fired_{};  ///< token, 0 = none
  FetchPolicy::Counters counters_{};
  // per-cycle scratch (kept across cycles so fire never allocates)
  // lint: transient — per-cycle scratch, cleared at each use
  std::vector<Load> due_;
};

/// FLUSH and STALL (Tullsen & Brown, MICRO-34) on top of ICOUNT ordering.
///
/// Detection Moment (§3 of the paper):
///  * SpecDelay (FL-SX, STALL-SX): a load is declared an L2 miss once it
///    has been outstanding `trigger` cycles since issuing from the LSQ.
///  * NonSpec (FL-NS): wait until the L2 bank determines the miss; the
///    load then fires on the next heartbeat.
///
/// Response Action: Flush squashes the offending thread's younger
/// instructions, frees their resources and stalls its fetch until the load
/// resolves; Stall only stalls fetch, so already fetched instructions keep
/// their resources (cheaper in energy, weaker at freeing resources — the
/// philosophical ancestor of MFLUSH's Preventive State).
class LongLatencyPolicy final : public FetchPolicy {
 public:
  enum class DetectionMoment { SpecDelay, NonSpec };

  LongLatencyPolicy(DetectionMoment dm, Cycle trigger,
                    ResponseAction response);

  [[nodiscard]] const char* name() const noexcept override {
    return name_.c_str();
  }

  void on_cycle(Cycle now, CoreControl& ctrl) override {
    loads_.fire(now, ctrl);
  }
  void on_load_issued(ThreadId tid, std::uint64_t token,
                      std::uint32_t l2_bank, Cycle now) override;
  void on_load_l2_miss(ThreadId tid, std::uint64_t token, std::uint32_t bank,
                       Cycle now) override;
  void on_load_resolved(ThreadId tid, std::uint64_t token, Cycle /*issue*/,
                        Cycle /*now*/, bool l2_accessed, bool l2_hit,
                        std::uint32_t /*bank*/) override {
    loads_.resolve(tid, token, l2_accessed, l2_hit);
  }

  void fetch_order(const CoreView& view,
                   std::array<ThreadId, kMaxContexts>& order) override {
    icount_order(view, order);
  }

  [[nodiscard]] Counters counters() const override {
    return loads_.counters();
  }
  void reset_counters() override { loads_.counters() = {}; }

  /// on_cycle only acts on armed loads: SpecDelay loads are armed at issue
  /// (firing at issue + trigger), NonSpec loads by an on_load_l2_miss
  /// callback, which re-queries the horizon anyway. Fired threads wait on
  /// a resolution callback.
  [[nodiscard]] Cycle quiescent_until(Cycle now) const override {
    return loads_.horizon(now);
  }
  void save_state(ArchiveWriter& ar) const override;
  void load_state(ArchiveReader& ar) override;
  template <class Ar>
  void fields(Ar& ar) {
    ar.io(loads_);
  }

 private:
  DetectionMoment dm_;  // lint: transient — ctor config
  Cycle trigger_;       // lint: transient — ctor config
  std::string name_;    // lint: transient — ctor config
  OutstandingLoads loads_;
};

}  // namespace mflush
