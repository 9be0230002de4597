#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// Kind of a memory access as seen by the hierarchy.
enum class MemKind : std::uint8_t { Load, Store, IFetch };

/// One requester waiting on an outstanding line.
///
/// Explicit zero-initialized padding: waiter lists are serialized by raw
/// memcpy, so implicit holes would put uninitialized bytes in the snapshot
/// and break canonical-bytes equality across processes.
struct MshrWaiter {
  std::uint64_t token = 0;
  ThreadId tid = 0;
  std::uint8_t _pad0[4] = {};
  Cycle issue_cycle = 0;
  MemKind kind = MemKind::Load;
  std::uint8_t _pad1[7] = {};
};

/// Miss Status Holding Registers: per-core, unified I+D, 16 entries
/// (Fig. 1 / §3.2 of the paper). Coalesces secondary misses to an
/// outstanding line.
class Mshr {
 public:
  explicit Mshr(std::uint32_t entries);

  /// Slot holding `line`, if outstanding.
  [[nodiscard]] std::optional<std::uint32_t> find(Addr line) const noexcept;

  /// Allocate a slot for `line`; nullopt when full.
  [[nodiscard]] std::optional<std::uint32_t> allocate(Addr line);

  /// Attach a waiter to an existing slot (secondary miss).
  void attach(std::uint32_t slot, const MshrWaiter& w);

  /// Release a slot, returning a view of its waiters. The vector stays
  /// owned by the slot (pooled: its capacity is reused by the next
  /// allocate of the slot instead of being reallocated per miss) and is
  /// valid until that next allocate.
  [[nodiscard]] const std::vector<MshrWaiter>& release(std::uint32_t slot);

  [[nodiscard]] Addr line_of_slot(std::uint32_t slot) const noexcept {
    return entries_[slot].line;
  }

  /// FL-NS support: record/query that the slot's line is known to have
  /// missed in L2 (so late coalescers learn the miss immediately).
  void set_miss_known(std::uint32_t slot) noexcept {
    entries_[slot].miss_known = true;
  }
  [[nodiscard]] bool miss_known(std::uint32_t slot) const noexcept {
    return entries_[slot].miss_known;
  }

  /// Waiters currently attached to `slot` (read-only view).
  [[nodiscard]] const std::vector<MshrWaiter>& waiters(
      std::uint32_t slot) const noexcept {
    return entries_[slot].waiters;
  }
  [[nodiscard]] bool full() const noexcept { return live_ == entries_.size(); }
  [[nodiscard]] std::uint32_t live() const noexcept { return live_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] std::uint64_t alloc_failures() const noexcept {
    return alloc_failures_;
  }

  template <class Ar>
  void fields(Ar& ar) {
    for (Entry& e : entries_) ar.io(e);
    ar.io(live_, alloc_failures_);
  }

 private:
  struct Entry {
    Addr line = 0;
    std::vector<MshrWaiter> waiters;
    bool valid = false;
    bool miss_known = false;

    template <class Ar>
    void fields(Ar& ar) {
      ar.io(line, waiters);
      ar.flag(valid, "Mshr::Entry::valid");
      ar.flag(miss_known, "Mshr::Entry::miss_known");
    }
  };

  std::vector<Entry> entries_;
  std::uint32_t live_ = 0;
  std::uint64_t alloc_failures_ = 0;
};

}  // namespace mflush
