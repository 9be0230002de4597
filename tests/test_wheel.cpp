#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/archive.h"
#include "common/rng.h"
#include "common/wheel.h"

namespace mflush {
namespace {

// ---------------------------------------------------------------- basics

TEST(WakeupWheel, PopsExactlyAtDueCycle) {
  WakeupWheel<int> wheel(16);
  wheel.schedule(5, 0, 42);
  wheel.schedule(7, 0, 43);
  std::vector<int> out;
  for (Cycle now = 1; now <= 4; ++now) {
    wheel.pop_due(now, out);
    EXPECT_TRUE(out.empty()) << "cycle " << now;
  }
  wheel.pop_due(5, out);
  EXPECT_EQ(out, (std::vector<int>{42}));
  out.clear();
  wheel.pop_due(6, out);
  EXPECT_TRUE(out.empty());
  wheel.pop_due(7, out);
  EXPECT_EQ(out, (std::vector<int>{43}));
  EXPECT_TRUE(wheel.empty());
}

TEST(WakeupWheel, SameCycleKeepsFifoOrder) {
  WakeupWheel<int> wheel(8);
  for (int i = 0; i < 5; ++i) wheel.schedule(3, 0, i);
  std::vector<int> out;
  wheel.pop_due(3, out);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WakeupWheel, PastDueEntriesPopNextCycle) {
  // The priority queues this replaces processed "ready_at <= now" on the
  // next tick; scheduling for the past must behave the same way.
  WakeupWheel<int> wheel(8);
  wheel.schedule(10, /*now=*/20, 1);
  std::vector<int> out;
  wheel.pop_due(21, out);
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(WakeupWheel, FarFutureEntriesUseOverflowQueue) {
  WakeupWheel<int> wheel(8);  // span 8
  wheel.schedule(100, 0, 7);
  EXPECT_EQ(wheel.far_size(), 1u);
  EXPECT_EQ(wheel.next_due(), 100u);
  std::vector<int> out;
  wheel.pop_due(99, out);
  EXPECT_TRUE(out.empty());
  wheel.pop_due(100, out);
  EXPECT_EQ(out, (std::vector<int>{7}));
  EXPECT_EQ(wheel.far_size(), 0u);
}

TEST(WakeupWheel, AliasedBucketEntriesStayPut) {
  WakeupWheel<int> wheel(8);
  wheel.schedule(3, 0, 1);
  wheel.schedule(11, 3, 2);  // same bucket as cycle 3 (11 & 7 == 3)
  std::vector<int> out;
  wheel.pop_due(3, out);
  EXPECT_EQ(out, (std::vector<int>{1}));
  out.clear();
  wheel.pop_due(11, out);
  EXPECT_EQ(out, (std::vector<int>{2}));
}

TEST(WakeupWheel, NextDueScansBucketsAndFar) {
  WakeupWheel<int> wheel(16);
  EXPECT_EQ(wheel.next_due(), kNeverCycle);
  wheel.schedule(40, 0, 1);
  wheel.schedule(9, 0, 2);
  EXPECT_EQ(wheel.next_due(), 9u);
}

// ------------------------------------------- fuzz vs linear-scan reference

/// Reference implementation: the pre-refactor "scan every pending entry"
/// list. The wheel must release exactly the same multiset of entries at
/// every cycle, for any schedule pattern.
struct LinearScanReference {
  struct Entry {
    Cycle at;
    std::uint64_t v;
  };
  std::vector<Entry> pending;

  void schedule(Cycle at, Cycle now, std::uint64_t v) {
    pending.push_back({at > now ? at : now + 1, v});
  }

  std::vector<std::uint64_t> pop_due(Cycle now) {
    std::vector<std::uint64_t> out;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].at <= now)
        out.push_back(pending[i].v);
      else
        pending[kept++] = pending[i];
    }
    pending.resize(kept);
    return out;
  }
};

TEST(WakeupWheel, FuzzMatchesLinearScan) {
  // Mixed near/far ready_at offsets, bursts, dry spells, and random cycle
  // jumps (the event-skip pattern). Unordered comparison: callers that
  // need an order sort the due batch themselves.
  Xoshiro256 rng(0x5eed);
  WakeupWheel<std::uint64_t> wheel(32);
  LinearScanReference ref;
  Cycle now = 0;
  std::uint64_t next_val = 0;

  for (int step = 0; step < 20'000; ++step) {
    // Advance time: mostly +1, sometimes a jump (only legal when the wheel
    // holds nothing due in the skipped range — emulate by jumping to
    // exactly the next due event like CmpSimulator::run does).
    if (rng.next_below(100) < 10 && !wheel.empty()) {
      const Cycle due = wheel.next_due();
      now = due > now ? due : now + 1;
    } else {
      ++now;
    }

    const std::uint64_t burst = rng.next_below(4);
    for (std::uint64_t b = 0; b < burst; ++b) {
      // Offsets span: past (clamped), in-wheel, far-queue.
      const std::uint64_t pick = rng.next_below(100);
      Cycle at;
      if (pick < 5)
        at = now - std::min<Cycle>(now, rng.next_below(8));  // past
      else if (pick < 85)
        at = now + 1 + rng.next_below(30);  // in wheel span
      else
        at = now + 40 + rng.next_below(400);  // far queue
      wheel.schedule(at, now, next_val);
      ref.schedule(at, now, next_val);
      ++next_val;
    }

    std::vector<std::uint64_t> got;
    wheel.pop_due(now, got);
    std::vector<std::uint64_t> want = ref.pop_due(now);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "diverged at cycle " << now;
    ASSERT_EQ(wheel.size(), ref.pending.size());
  }
}

TEST(WakeupWheel, NextDueCacheMatchesScanUnderFuzz) {
  // next_due() caches the earliest scheduled cycle; the cache must stay
  // exact through any interleaving of schedules (cheap min update), empty
  // pops (cache kept), and real pops (lazy rescan).
  Xoshiro256 rng(0xcac4ed);
  WakeupWheel<std::uint64_t> wheel(16);
  LinearScanReference ref;
  Cycle now = 0;
  for (int step = 0; step < 10'000; ++step) {
    ++now;
    const std::uint64_t burst = rng.next_below(3);
    for (std::uint64_t b = 0; b < burst; ++b) {
      const Cycle at = now + rng.next_below(60);  // past, in-span, and far
      wheel.schedule(at, now, at);
      ref.schedule(at, now, at);
    }
    Cycle want = kNeverCycle;
    for (const auto& e : ref.pending)
      // The reference stores release cycles; recover the scheduled cycle
      // (the value doubles as the original `at`).
      want = std::min(want, static_cast<Cycle>(e.v));
    ASSERT_EQ(wheel.next_due(), want) << "cycle " << now;
    std::vector<std::uint64_t> sink;
    wheel.pop_due(now, sink);
    (void)ref.pop_due(now);
  }
}

TEST(WakeupWheel, EventSkipJumpsNeverStrandEntries) {
  // The event kernel's contract: every clock jump is bounded by
  // next_due(), so no entry's release cycle is ever inside a skipped
  // window. Fuzz that contract with aggressive jumps on a strict wheel
  // (which asserts the invariant internally in debug builds) and verify
  // against the linear-scan reference that nothing is released late.
  Xoshiro256 rng(0x57a4d);
  WakeupWheel<std::uint64_t> wheel(16, /*strict_release=*/true);
  LinearScanReference ref;  // ref.pending[i].at holds the release cycle
  Cycle now = 0;
  std::uint64_t next_val = 0;
  std::uint64_t jumps_taken = 0;
  for (int step = 0; step < 20'000; ++step) {
    // Jump like CmpSimulator::run does: straight to the next due event
    // (often far-queue distances, many wheel spans ahead).
    if (rng.next_below(100) < 30 && !wheel.empty()) {
      const Cycle due = wheel.next_due();
      if (due > now + 1) ++jumps_taken;
      now = due > now ? due : now + 1;
    } else {
      ++now;
    }
    const std::uint64_t burst = rng.next_below(4);
    for (std::uint64_t b = 0; b < burst; ++b) {
      const std::uint64_t pick = rng.next_below(100);
      Cycle at;
      if (pick < 10)
        at = now - std::min<Cycle>(now, rng.next_below(20));  // past due
      else if (pick < 70)
        at = now + 1 + rng.next_below(14);  // in span
      else
        at = now + 20 + rng.next_below(500);  // aliased bucket / far queue
      wheel.schedule(at, now, next_val);
      ref.schedule(at, now, next_val);
      ++next_val;
    }
    std::vector<std::uint64_t> got;
    wheel.pop_due(now, got);
    std::vector<std::uint64_t> want = ref.pop_due(now);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "stranded or early entry at cycle " << now;
    // Nothing pending may already be past its release: that would mean a
    // jump passed it and it sits stranded in an aliased bucket.
    for (const auto& e : ref.pending)
      ASSERT_GT(e.at, now) << "entry " << e.v << " stranded at cycle " << now;
  }
  EXPECT_GT(jumps_taken, 100u) << "fuzz never exercised real jumps";
}

TEST(WakeupWheel, SaveLoadRoundTripMidStream) {
  Xoshiro256 rng(99);
  WakeupWheel<std::uint64_t> a(16);
  Cycle now = 0;
  for (int i = 0; i < 500; ++i) {
    ++now;
    if (rng.next_below(3) != 0)
      a.schedule(now + 1 + rng.next_below(200), now, rng.next());
    std::vector<std::uint64_t> sink;
    a.pop_due(now, sink);
  }

  ArchiveWriter w;
  w.io(a);
  WakeupWheel<std::uint64_t> b(16);
  ArchiveReader r(w.bytes());
  r.io(b);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(a.size(), b.size());

  // Both must release identical batches forever after.
  for (int i = 0; i < 600; ++i) {
    ++now;
    std::vector<std::uint64_t> out_a, out_b;
    a.pop_due(now, out_a);
    b.pop_due(now, out_b);
    ASSERT_EQ(out_a, out_b) << "cycle " << now;
  }
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace mflush
