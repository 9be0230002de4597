#pragma once

#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "pipeline/uop.h"

namespace mflush {

/// One issue queue (int, fp, or ld/st), shared among the core's contexts.
///
/// Entries keep insertion (age) order; issue selects from the operand
/// wakeup's ready lists (pipeline/wakeup.h), not from here. The vector
/// stays compact — its bytes are the snapshot's — so removal is a search
/// from both ends plus an erase, O(n) with n ≤ 64.
class IssueQueue {
 public:
  explicit IssueQueue(std::uint32_t capacity) : cap_(capacity) {
    entries_.reserve(capacity);
  }

  [[nodiscard]] bool full() const noexcept { return entries_.size() >= cap_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return cap_; }

  void insert(UopHandle h) { entries_.push_back(h); }

  /// Remove a specific entry (issued or squashed); returns true if found.
  bool remove(UopHandle h);

  /// Entries, oldest first.
  [[nodiscard]] const std::vector<UopHandle>& entries() const noexcept {
    return entries_;
  }

  /// Count of entries belonging to `tid` (ICOUNT bookkeeping checks).
  [[nodiscard]] std::uint32_t count_for(const UopPool& pool,
                                        ThreadId tid) const;

  template <class Ar>
  void fields(Ar& ar) {
    ar.io(entries_);
  }

 private:
  std::vector<UopHandle> entries_;
  std::uint32_t cap_;  // lint: transient — ctor capacity
};

}  // namespace mflush
