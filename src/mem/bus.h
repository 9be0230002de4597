#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// Shared L1↔L2 request bus.
///
/// A transfer occupies the bus for `latency` cycles (a true shared bus, as
/// in the paper's "bus-based interconnection network" — this occupancy is
/// one of the two terms of the MT equation). Arbitration is round-robin
/// across cores. The response path is a dedicated return network with no
/// modelled occupancy, so the unloaded L2 hit round trip is
/// l1 + bus + bank = 22 cycles, matching Fig. 1.
class SharedBus {
 public:
  SharedBus(std::uint32_t num_cores, std::uint32_t latency);

  /// Queue a payload (an opaque request index) from `core`.
  void push(CoreId core, std::uint64_t payload, Cycle now);

  /// Advance one cycle; payloads whose transfer completes this cycle are
  /// appended to `delivered`.
  void tick(Cycle now, std::vector<std::uint64_t>& delivered);

  [[nodiscard]] std::size_t queued() const noexcept;

  /// Next cycle at which tick() changes state (delivery or a new grant);
  /// kNeverCycle when idle with empty queues.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const noexcept {
    Cycle e = kNeverCycle;
    if (!in_flight_.empty()) e = in_flight_.front().arrives;
    for (const auto& q : per_core_) {
      if (!q.empty()) {
        const Cycle grant = busy_until_ > now + 1 ? busy_until_ : now + 1;
        if (grant < e) e = grant;
        break;
      }
    }
    return e;
  }

  template <class Ar>
  void fields(Ar& ar) {
    for (auto& q : per_core_) ar.io(q);
    ar.io(rr_next_, busy_until_, in_flight_, transfers_, queue_wait_cycles_);
  }

  [[nodiscard]] std::uint64_t transfers() const noexcept { return transfers_; }
  [[nodiscard]] std::uint64_t queue_wait_cycles() const noexcept {
    return queue_wait_cycles_;
  }
  void reset_stats() noexcept {
    transfers_ = 0;
    queue_wait_cycles_ = 0;
  }

  struct Pending {
    std::uint64_t payload;
    Cycle arrives;
  };

  /// Transfers on the wire, earliest arrival first (idle-time per-core
  /// horizon scans).
  [[nodiscard]] const std::deque<Pending>& in_flight() const noexcept {
    return in_flight_;
  }
  /// True when `core` has a request waiting for a bus grant.
  [[nodiscard]] bool has_queued_from(CoreId core) const noexcept {
    return !per_core_[core].empty();
  }

  /// Serialized by raw memcpy (two 8-byte scalars — no padding).
  struct Queued {
    std::uint64_t payload;
    Cycle enqueued;
  };

 private:
  std::uint32_t latency_;  // lint: transient — ctor config
  std::vector<std::deque<Queued>> per_core_;
  std::uint32_t rr_next_ = 0;  ///< round-robin arbitration pointer
  Cycle busy_until_ = 0;       ///< bus occupancy (one transfer at a time)
  std::deque<Pending> in_flight_;
  std::uint64_t transfers_ = 0;
  std::uint64_t queue_wait_cycles_ = 0;
};

}  // namespace mflush
