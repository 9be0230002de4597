#include "pipeline/iq.h"

namespace mflush {

bool IssueQueue::remove(UopHandle h) {
  // Issue and completion mostly take old entries, squashes young ones, so
  // the search closes in from both ends at once.
  std::size_t lo = 0;
  std::size_t hi = entries_.size();
  while (lo < hi) {
    if (entries_[lo] == h) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(lo));
      return true;
    }
    if (entries_[--hi] == h) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(hi));
      return true;
    }
    ++lo;
  }
  return false;
}

std::uint32_t IssueQueue::count_for(const UopPool& pool, ThreadId tid) const {
  std::uint32_t n = 0;
  for (const UopHandle h : entries_)
    if (pool[h].tid == tid) ++n;
  return n;
}

}  // namespace mflush
