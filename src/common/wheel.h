#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/types.h"

namespace mflush {

/// Bucketed wakeup wheel: a timing wheel that replaces "scan every pending
/// entry each cycle" polling with O(1) scheduling and O(due) retrieval.
///
/// Entries scheduled for cycle `c` land in bucket `c & mask`; entries
/// further out than the wheel span go to an unsorted far queue that is
/// only scanned while non-empty (with default latencies it stays empty).
/// pop_due() returns due entries in bucket-FIFO order followed by
/// far-queue insertion order — callers that need a global order (the
/// hierarchy's (ready_at, order) heap order, the core's per-thread program
/// order) sort the small due batch themselves.
///
/// Clock-jump contract: the wheel tolerates skipped cycles ONLY when the
/// skip never jumps past an entry's release cycle — a bucket is probed
/// solely when `now & mask` comes around, so an entry whose release cycle
/// falls inside a skipped window would sit stranded in its (now aliased)
/// bucket until the index wraps. A `strict_release` wheel asserts the
/// invariant in debug builds whenever pop_due() observes a jump; wheels
/// whose entries may legitimately outlive their release (the core's exec
/// wheel keeps squashed entries as stale slots that a generation check
/// discards whenever they eventually pop) leave it off.
template <typename T>
class WakeupWheel {
 public:
  explicit WakeupWheel(std::uint32_t buckets = 64, bool strict_release = false)
      : buckets_(std::bit_ceil(std::uint64_t{buckets < 2 ? 2 : buckets})),
        mask_(buckets_.size() - 1),
        strict_release_(strict_release) {}

  /// Schedule `v` to pop at cycle `at`. `now` is the current cycle: entries
  /// due in the past or present are placed so the next pop (cycle now+1)
  /// releases them, matching the "pending queue drained next tick"
  /// semantics of the priority queues this replaces.
  void schedule(Cycle at, Cycle now, T v) {
    const Cycle release = at > now ? at : now + 1;
    if (release - now > mask_) {
      far_.push_back(Slot{at, release, std::move(v)});
    } else {
      buckets_[release & mask_].push_back(Slot{at, release, std::move(v)});
    }
    ++count_;
    if (next_valid_ && at < next_cached_) next_cached_ = at;
  }

  /// Append every entry due at or before `now` to `out`.
  void pop_due(Cycle now, std::vector<T>& out) {
#ifndef NDEBUG
    // A jump landed here: nothing pending may have been due in the skipped
    // window, or it is stranded in an unprobed bucket (released up to a
    // full span late). The kernel must bound jumps by next_due().
    if (strict_release_ && last_pop_valid_ && now > last_pop_now_ + 1)
      assert_nothing_stranded(now);
    last_pop_now_ = now;
    last_pop_valid_ = true;
#endif
    if (count_ == 0) return;
    const std::size_t before = out.size();
    take_due(buckets_[now & mask_], now, out);
    if (!far_.empty()) take_due(far_, now, out);
    // Popping may have removed the cached earliest entry.
    if (out.size() != before) next_valid_ = count_ == 0;
    if (count_ == 0) next_cached_ = kNeverCycle;
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t far_size() const noexcept { return far_.size(); }
  [[nodiscard]] std::uint32_t span() const noexcept {
    return static_cast<std::uint32_t>(buckets_.size());
  }

  /// Earliest scheduled cycle, kNeverCycle when empty. Cached: repeated
  /// idle-time horizon queries are O(1); the O(span + entries) scan only
  /// reruns after a pop actually removed entries.
  [[nodiscard]] Cycle next_due() const noexcept {
    if (!next_valid_) {
      next_cached_ = scan_min_at();
      next_valid_ = true;
    }
    return next_cached_;
  }

  /// Earliest scheduled cycle among entries matching `pred`, kNeverCycle
  /// when none. Always a full scan — idle-time per-core horizon queries
  /// only, never the per-cycle path.
  template <typename Pred>
  [[nodiscard]] Cycle next_due_if(Pred&& pred) const {
    Cycle best = kNeverCycle;
    if (count_ == 0) return best;
    for (const auto& b : buckets_)
      for (const Slot& s : b)
        if (s.at < best && pred(s.v)) best = s.at;
    for (const Slot& s : far_)
      if (s.at < best && pred(s.v)) best = s.at;
    return best;
  }

  /// The bucket count is ctor geometry: echoed, and checked on load.
  template <class Ar>
  void fields(Ar& ar) {
    ar.fixed_count(buckets_.size(), "wakeup wheel span");
    for (auto& b : buckets_) ar.io(b);
    ar.io(far_);
    ar.on_load([this] {
      count_ = far_.size();
      for (const auto& b : buckets_) count_ += b.size();
      next_valid_ = false;
#ifndef NDEBUG
      last_pop_valid_ = false;
#endif
    });
  }

 private:
  struct Slot {
    Cycle at;       ///< requested due cycle (what next_due reports)
    Cycle release;  ///< actual pop cycle: max(at, schedule_now + 1)
    T v;

    template <class Ar>
    void fields(Ar& ar) {
      ar.io(at, release, v);
    }
  };

  [[nodiscard]] Cycle scan_min_at() const noexcept {
    Cycle best = kNeverCycle;
    if (count_ == 0) return best;
    for (const auto& b : buckets_)
      for (const Slot& s : b)
        if (s.at < best) best = s.at;
    for (const Slot& s : far_)
      if (s.at < best) best = s.at;
    return best;
  }

#ifndef NDEBUG
  /// Every pending entry must still be releasable on time: a release cycle
  /// at or before `now` that is not in this cycle's probed bucket (or the
  /// always-scanned far queue) was jumped past and is stranded.
  void assert_nothing_stranded(Cycle now) const {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (i == (now & mask_)) continue;
      for (const Slot& s : buckets_[i])
        assert(s.release > now &&
               "wakeup wheel entry stranded: event-skip jumped past its "
               "release cycle");
    }
  }
#endif

  /// Move due slots to `out` preserving the relative order of the kept
  /// remainder (compaction in place, no allocation in steady state).
  void take_due(std::vector<Slot>& slots, Cycle now, std::vector<T>& out) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].at <= now) {
        out.push_back(std::move(slots[i].v));
        --count_;
      } else {
        if (kept != i) slots[kept] = std::move(slots[i]);
        ++kept;
      }
    }
    slots.resize(kept);
  }

  std::vector<std::vector<Slot>> buckets_;
  Cycle mask_;  // lint: transient — ctor geometry (bucket count - 1)
  std::vector<Slot> far_;
  std::size_t count_ = 0;   // lint: transient — recounted on load
  bool strict_release_;     // lint: transient — ctor debug mode
  // Memoized next_due: load invalidates, the next query rescans.
  mutable Cycle next_cached_ = kNeverCycle;  // lint: transient — memo cache
  mutable bool next_valid_ = true;           // lint: transient — memo cache
#ifndef NDEBUG
  Cycle last_pop_now_ = 0;
  // lint: transient — debug-only pop-order assert state, reset by load
  bool last_pop_valid_ = false;
#endif
};

}  // namespace mflush
