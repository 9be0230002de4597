#include "pipeline/wakeup.h"

#include <algorithm>

namespace mflush {

OperandWakeup::OperandWakeup(std::uint32_t num_regs, std::size_t slots)
    : heads_(num_regs, kNil), slots_(slots) {}

void OperandWakeup::clear() {
  std::fill(heads_.begin(), heads_.end(), kNil);
  std::fill(slots_.begin(), slots_.end(), Slot{});
  for (auto& list : ready_) list.clear();
  next_stamp_ = 0;
}

void OperandWakeup::unlink(std::uint32_t node) {
  Slot& s = slots_[node / 2];
  const std::uint32_t prev = s.prev[node % 2];
  const std::uint32_t next = s.next[node % 2];
  if (prev & kHead)
    heads_[prev & ~kHead] = next;
  else
    slots_[prev / 2].next[prev % 2] = next;
  if (next != kNil) slots_[next / 2].prev[next % 2] = prev;
  s.prev[node % 2] = kUnlinked;
}

void OperandWakeup::remove(UopHandle h) {
  if (h >= slots_.size() || slots_[h].list == kIdle) return;
  Slot& s = slots_[h];
  if (s.pending > 0) {
    for (std::uint32_t i = 0; i < 2; ++i)
      if (s.prev[i] != kUnlinked) unlink(2 * h + i);
  } else {
    std::vector<Ready>& list = ready_[s.list];
    list.erase(std::find_if(list.begin(), list.end(),
                            [h](const Ready& r) { return r.h == h; }));
  }
  s.list = kIdle;
}

}  // namespace mflush
