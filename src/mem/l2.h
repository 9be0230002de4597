#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/archive.h"
#include "common/types.h"
#include "mem/cache.h"

namespace mflush {

/// Outcome of one L2 bank service.
struct L2ServiceResult {
  std::uint64_t payload = 0;  ///< opaque request index
  bool hit = false;
  std::uint32_t bank = 0;
};

/// Shared, multi-banked L2 cache (Fig. 1: 4 MB, 12-way, 4 banks; each bank
/// single-ported with a 15-cycle access).
///
/// Each bank owns an address-interleaved slice of the tag array and serves
/// one request at a time: a request occupies its bank for `bank_latency`
/// cycles, so back-to-back requests to the same bank serialize — the paper's
/// "the 4th consecutive L2 hit to the same bank experiences a 45-cycle
/// delay" behaviour.
class L2Cache {
 public:
  L2Cache(std::uint32_t size_bytes, std::uint32_t ways,
          std::uint32_t line_bytes, std::uint32_t banks,
          std::uint32_t bank_latency);

  [[nodiscard]] std::uint32_t bank_of(Addr addr) const noexcept {
    return static_cast<std::uint32_t>((addr >> line_shift_) & (banks() - 1));
  }
  [[nodiscard]] std::uint32_t banks() const noexcept {
    return static_cast<std::uint32_t>(slices_.size());
  }

  /// Queue a request (read lookup or writeback install) at its bank.
  void enqueue(Addr addr, std::uint64_t payload, bool is_writeback, Cycle now);

  /// Advance one cycle; completed *read* services are appended to `out`
  /// (writebacks install silently). A read service probes the slice tags:
  /// hit refreshes LRU; miss does NOT install (the fill happens later via
  /// `fill()` when memory responds).
  void tick(Cycle now, std::vector<L2ServiceResult>& out);

  /// Install a line returning from memory; returns eviction info (dirty
  /// victims are written back to memory by the caller).
  EvictInfo fill(Addr addr, bool dirty);

  [[nodiscard]] std::uint64_t read_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t read_misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t writebacks() const noexcept {
    return writebacks_;
  }
  [[nodiscard]] std::uint64_t bank_busy_cycles() const noexcept {
    return busy_cycles_;
  }
  [[nodiscard]] std::size_t queue_depth(std::uint32_t bank) const {
    return banks_[bank].queue.size();
  }
  void reset_stats() noexcept;

  /// Next cycle at which tick() changes state. A busy bank means every
  /// cycle (per-cycle occupancy accounting), so the event kernel only
  /// skips over fully idle banks.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const noexcept {
    for (const Bank& b : banks_)
      if (b.busy || !b.queue.empty()) return now + 1;
    return kNeverCycle;
  }

  /// True when bank `b` is busy with or queueing any read request whose
  /// payload matches `pred` (idle-time per-core horizon scans; writebacks
  /// install silently and never produce completions).
  template <typename Pred>
  [[nodiscard]] bool bank_serves_core(std::uint32_t b, Pred&& pred) const {
    const Bank& bank = banks_[b];
    if (bank.busy && !bank.current.is_writeback && pred(bank.current.payload))
      return true;
    for (const BankRequest& r : bank.queue)
      if (!r.is_writeback && pred(r.payload)) return true;
    return false;
  }

  template <class Ar>
  void fields(Ar& ar) {
    for (SetAssocCache& s : slices_) ar.io(s);
    for (Bank& b : banks_) ar.io(b);
    ar.io(hits_, misses_, writebacks_, busy_cycles_);
  }

  /// Explicit padding because bank queues are serialized by raw memcpy,
  /// which accepts only records without padding holes (RawArchivable).
  struct BankRequest {
    Addr addr = 0;
    std::uint64_t payload = 0;
    bool is_writeback = false;
    std::uint8_t _pad[7] = {};  ///< explicit tail padding: canonical bytes
  };

 private:
  struct Bank {
    std::deque<BankRequest> queue;
    BankRequest current{};
    Cycle done_at = 0;
    bool busy = false;

    template <class Ar>
    void fields(Ar& ar) {
      ar.io(queue, current, done_at);
      ar.flag(busy, "L2Cache::Bank::busy");
    }
  };

  std::uint32_t line_bytes_;    // lint: transient — ctor geometry
  // log2(line_bytes): hot-path divide -> shift
  std::uint32_t line_shift_;    // lint: transient — ctor geometry
  std::uint32_t bank_latency_;  // lint: transient — ctor config
  std::vector<SetAssocCache> slices_;  ///< one tag slice per bank
  std::vector<Bank> banks_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t busy_cycles_ = 0;
};

}  // namespace mflush
