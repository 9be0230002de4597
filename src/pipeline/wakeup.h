#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "pipeline/uop.h"

namespace mflush {

/// Operand wakeup for the issue stage: which queued uops have every source
/// ready, kept up to date incrementally instead of re-tested every cycle.
///
/// A waiting uop counts its pending sources and sits on the wait list of
/// each physical register it still needs — an intrusive doubly-linked list
/// through two nodes per uop slot, so a squash unlinks in O(1) and nothing
/// stale is ever left behind. Marking a register ready walks its list; a
/// uop whose count reaches zero joins its queue's ready list, which is kept
/// in enqueue (dispatch, i.e. queue age) order.
///
/// Everything here is derived from the pipeline state; the owner rebuilds
/// it (clear + enqueue in queue order) after a restore.
class OperandWakeup {
 public:
  /// One ready list per issue selector: int queue, fp queue, mem-queue
  /// loads.
  enum List : std::uint8_t { kInt = 0, kFp = 1, kLoad = 2, kNumLists = 3 };
  static constexpr std::uint32_t kNoReg = 0xffffffff;

  struct Ready {
    std::uint64_t stamp;  ///< enqueue order: the queue's age order
    UopHandle h;
  };

  /// `num_regs` physical registers (the owner's flat numbering across
  /// register classes); `slots` uop-pool slots (grown on demand).
  OperandWakeup(std::uint32_t num_regs, std::size_t slots);

  /// Forget every uop and wait list.
  void clear();

  /// Enter uop `h` for selector `list`, waiting on each register of
  /// `waits` other than kNoReg (one entry per not-yet-ready source).
  void enqueue(UopHandle h, List list, std::array<std::uint32_t, 2> waits) {
    if (h >= slots_.size()) slots_.resize(h + 1);  // the pool grew
    Slot& s = slots_[h];
    s.stamp = next_stamp_++;
    s.list = list;
    s.pending = 0;
    for (std::uint32_t i = 0; i < 2; ++i) {
      const std::uint32_t reg = waits[i];
      if (reg == kNoReg) continue;
      const std::uint32_t node = 2 * h + i;
      const std::uint32_t head = heads_[reg];
      s.prev[i] = kHead | reg;
      s.next[i] = head;
      if (head != kNil) slots_[head / 2].prev[head % 2] = node;
      heads_[reg] = node;
      ++s.pending;
    }
    if (s.pending == 0) make_ready(h);
  }

  /// Register `reg` became ready: wake its waiters.
  void wake(std::uint32_t reg) {
    std::uint32_t node = heads_[reg];
    heads_[reg] = kNil;
    while (node != kNil) {
      const UopHandle h = node / 2;
      Slot& s = slots_[h];
      s.prev[node % 2] = kUnlinked;
      node = s.next[node % 2];
      if (--s.pending == 0) make_ready(h);
    }
  }

  /// Drop `h` (squashed before issue) from wherever it is; a no-op for a
  /// uop that was never enqueued or has already been popped.
  void remove(UopHandle h);

  /// Candidates of `list`, oldest first.
  [[nodiscard]] const std::vector<Ready>& ready(List list) const noexcept {
    return ready_[list];
  }

  /// The first `n` candidates of `list` issued.
  void pop_front(List list, std::size_t n) {
    if (n == 0) return;
    std::vector<Ready>& l = ready_[list];
    for (std::size_t i = 0; i < n; ++i) slots_[l[i].h].list = kIdle;
    l.erase(l.begin(), l.begin() + static_cast<std::ptrdiff_t>(n));
  }

  [[nodiscard]] bool any_ready() const noexcept {
    return !ready_[kInt].empty() || !ready_[kFp].empty() ||
           !ready_[kLoad].empty();
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffff;
  /// A node's `prev` when it heads register r's list: kHead | r.
  static constexpr std::uint32_t kHead = 0x80000000;
  /// A node's `prev` when it is on no list.
  static constexpr std::uint32_t kUnlinked = 0xfffffffe;
  static constexpr std::uint8_t kIdle = 0xff;  ///< not enqueued

  /// Per uop slot. Node `2 * slot + i` is source i's wait-list link.
  struct Slot {
    std::uint64_t stamp = 0;
    std::array<std::uint32_t, 2> prev{kUnlinked, kUnlinked};
    std::array<std::uint32_t, 2> next{kNil, kNil};
    std::uint8_t list = kIdle;
    std::uint8_t pending = 0;  ///< sources not yet ready
  };

  void make_ready(UopHandle h) {
    std::vector<Ready>& list = ready_[slots_[h].list];
    const std::uint64_t stamp = slots_[h].stamp;
    // Usually the youngest candidate: dispatched with its sources ready.
    if (list.empty() || list.back().stamp < stamp) {
      list.push_back({stamp, h});
      return;
    }
    auto pos = list.end() - 1;
    while (pos != list.begin() && (pos - 1)->stamp > stamp) --pos;
    list.insert(pos, {stamp, h});
  }

  void unlink(std::uint32_t node);

  std::vector<std::uint32_t> heads_;  ///< per register: first node or kNil
  std::vector<Slot> slots_;
  std::array<std::vector<Ready>, kNumLists> ready_;
  std::uint64_t next_stamp_ = 0;
};

}  // namespace mflush
