#include <gtest/gtest.h>

#include "common/config.h"
#include "mem/hierarchy.h"

namespace mflush {
namespace {

SimConfig cfg_with_cores(std::uint32_t n) {
  SimConfig cfg = SimConfig::paper_default(n);
  return cfg;
}

/// Drive the hierarchy until the given token completes; returns the
/// completion (and asserts it arrives within `deadline` cycles).
MemCompletion run_until_complete(MemoryHierarchy& mem, CoreId core,
                                 std::uint64_t token, Cycle start,
                                 Cycle deadline) {
  for (Cycle t = start + 1; t <= start + deadline; ++t) {
    mem.tick(t);
    for (const MemCompletion& c : mem.completions(core)) {
      if (c.token == token) {
        const MemCompletion out = c;
        mem.completions(core).clear();
        return out;
      }
    }
    mem.completions(core).clear();
  }
  ADD_FAILURE() << "token " << token << " never completed";
  return {};
}

TEST(Hierarchy, L1HitCompletesInL1Latency) {
  MemoryHierarchy mem(cfg_with_cores(1));
  // First access warms the line (goes to memory), second is the L1 hit.
  const auto t1 = mem.request_load(0, 0, 0x1000, 0);
  (void)run_until_complete(mem, 0, t1, 0, 700);
  const Cycle now = 500;
  const auto t2 = mem.request_load(0, 0, 0x1008, now);
  const auto c = run_until_complete(mem, 0, t2, now, 50);
  EXPECT_EQ(c.done_cycle - c.issue_cycle, 3u);  // Fig. 1: L1 lat 3
  EXPECT_FALSE(c.l2_accessed);
}

// DESIGN.md latency anatomy: unloaded L2 hit round trip = 3 + 4 + 15 = 22,
// the paper's "L1 lat./miss 3/22".
TEST(Hierarchy, UnloadedL2HitTakes22Cycles) {
  MemoryHierarchy mem(cfg_with_cores(1));
  mem.prewarm_l2_line(0x1000);
  // Warm the TLB first so the measured access has no page-walk component.
  const auto tw = mem.request_load(0, 0, 0x1000 + 64 * 100, 0);
  (void)run_until_complete(mem, 0, tw, 0, 700);
  const auto warm_tlb = mem.request_load(0, 0, 0x1040, 1000);
  (void)run_until_complete(mem, 0, warm_tlb, 1000, 700);

  const Cycle now = 2000;
  const auto tok = mem.request_load(0, 0, 0x1000, now);
  const auto c = run_until_complete(mem, 0, tok, now, 100);
  EXPECT_TRUE(c.l2_accessed);
  EXPECT_TRUE(c.l2_hit);
  EXPECT_EQ(c.done_cycle - c.issue_cycle, 22u);
}

TEST(Hierarchy, L2MissPaysMemoryLatency) {
  MemoryHierarchy mem(cfg_with_cores(1));
  // Warm TLB page.
  const auto tw = mem.request_load(0, 0, 0x5000, 0);
  (void)run_until_complete(mem, 0, tw, 0, 700);
  const Cycle now = 1000;
  const auto tok = mem.request_load(0, 0, 0x5000 + 64 * 3, now);
  const auto c = run_until_complete(mem, 0, tok, now, 700);
  EXPECT_TRUE(c.l2_accessed);
  EXPECT_FALSE(c.l2_hit);
  // 22 (reach the bank + probe) + 250 (memory), same page -> no TLB walk.
  EXPECT_EQ(c.done_cycle - c.issue_cycle, 272u);
}

TEST(Hierarchy, TlbMissAdds300Cycles) {
  MemoryHierarchy mem(cfg_with_cores(1));
  mem.prewarm_l2_line(0x9000);
  const Cycle now = 10;
  const auto tok = mem.request_load(0, 0, 0x9000, now);  // cold TLB page
  const auto c = run_until_complete(mem, 0, tok, now, 700);
  EXPECT_EQ(c.done_cycle - c.issue_cycle, 322u);  // 300 walk + 22 L2 hit
  EXPECT_EQ(mem.stats().dtlb_misses, 1u);
}

TEST(Hierarchy, MshrCoalescesSameLine) {
  MemoryHierarchy mem(cfg_with_cores(1));
  // Two loads to the same (cold) line: one L2 access, two completions.
  const auto a = mem.request_load(0, 0, 0x2000, 0);
  const auto b = mem.request_load(0, 1, 0x2010, 0);
  bool got_a = false, got_b = false;
  for (Cycle t = 1; t <= 700; ++t) {
    mem.tick(t);
    for (const MemCompletion& c : mem.completions(0)) {
      if (c.token == a) got_a = true;
      if (c.token == b) got_b = true;
    }
    mem.completions(0).clear();
  }
  EXPECT_TRUE(got_a);
  EXPECT_TRUE(got_b);
  EXPECT_EQ(mem.l2().read_hits() + mem.l2().read_misses(), 1u);
}

TEST(Hierarchy, L2PathEventEmittedForLoadMisses) {
  MemoryHierarchy mem(cfg_with_cores(1));
  const auto tok = mem.request_load(0, 0, 0x3000, 0);
  bool seen = false;
  for (Cycle t = 1; t <= 700; ++t) {
    mem.tick(t);
    for (const L2PathEvent& e : mem.l2_events(0)) {
      if (e.token == tok) {
        seen = true;
        EXPECT_EQ(e.bank, mem.l2_bank_of(0x3000));
      }
    }
    mem.l2_events(0).clear();
    mem.completions(0).clear();
  }
  EXPECT_TRUE(seen);
}

TEST(Hierarchy, L2MissEventEmittedAtDetection) {
  MemoryHierarchy mem(cfg_with_cores(1));
  const auto tok = mem.request_load(0, 0, 0x4000, 0);
  Cycle miss_detected = 0, completed = 0;
  for (Cycle t = 1; t <= 700; ++t) {
    mem.tick(t);
    for (const L2PathEvent& e : mem.l2_miss_events(0))
      if (e.token == tok) miss_detected = t;
    for (const MemCompletion& c : mem.completions(0))
      if (c.token == tok) completed = t;
    mem.l2_miss_events(0).clear();
    mem.completions(0).clear();
  }
  ASSERT_GT(miss_detected, 0u);
  ASSERT_GT(completed, 0u);
  // FL-NS detection happens when the bank determines the miss — roughly
  // the memory latency before the data arrives.
  EXPECT_GE(completed - miss_detected, 240u);
}

TEST(Hierarchy, IFetchHitIsSynchronous) {
  MemoryHierarchy mem(cfg_with_cores(1));
  const auto first = mem.request_ifetch(0, 0, 0x7000, 0);
  ASSERT_TRUE(first.has_value());  // cold: miss
  // Complete the fill.
  for (Cycle t = 1; t <= 700; ++t) {
    mem.tick(t);
    mem.completions(0).clear();
  }
  const auto second = mem.request_ifetch(0, 0, 0x7004, 1000);
  EXPECT_FALSE(second.has_value());  // warm line: no stall
}

TEST(Hierarchy, StoreMissGeneratesTrafficAndDirtyFill) {
  MemoryHierarchy mem(cfg_with_cores(1));
  mem.request_store(0, 0, 0x8000, 0);
  for (Cycle t = 1; t <= 700; ++t) {
    mem.tick(t);
    mem.completions(0).clear();
  }
  EXPECT_EQ(mem.stats().stores, 1u);
  EXPECT_EQ(mem.l2().read_hits() + mem.l2().read_misses(), 1u);
  // The line was installed dirty in L1: storing again hits silently.
  mem.request_store(0, 0, 0x8000, 1000);
  for (Cycle t = 1001; t <= 1100; ++t) {
    mem.tick(t);
    mem.completions(0).clear();
  }
  EXPECT_EQ(mem.l2().read_hits() + mem.l2().read_misses(), 1u);
}

TEST(Hierarchy, MshrOverflowRetriesInsteadOfDropping) {
  SimConfig cfg = cfg_with_cores(1);
  cfg.mem.mshr_entries = 2;
  MemoryHierarchy mem(cfg);
  // Issue 6 loads to distinct cold lines in the same page region.
  std::vector<std::uint64_t> tokens;
  for (int i = 0; i < 6; ++i)
    tokens.push_back(mem.request_load(0, 0, 0xA000 + i * 64, 0));
  std::size_t completed = 0;
  for (Cycle t = 1; t <= 3000; ++t) {
    mem.tick(t);
    completed += mem.completions(0).size();
    mem.completions(0).clear();
    mem.l2_events(0).clear();
  }
  EXPECT_EQ(completed, 6u);  // all eventually served despite MSHR pressure
}

TEST(Hierarchy, Fig4StatsTrackL2LoadHits) {
  MemoryHierarchy mem(cfg_with_cores(1));
  mem.prewarm_l2_line(0xB000);
  const auto tok = mem.request_load(0, 0, 0xB000, 0);
  for (Cycle t = 1; t <= 700; ++t) {
    mem.tick(t);
    mem.completions(0).clear();
  }
  (void)tok;
  EXPECT_EQ(mem.stats().l2_load_hit_time.count(), 1u);
  EXPECT_EQ(mem.stats().l2_load_misses, 0u);
}

TEST(Hierarchy, ResetStatsClearsEverything) {
  MemoryHierarchy mem(cfg_with_cores(1));
  (void)mem.request_load(0, 0, 0xC000, 0);
  for (Cycle t = 1; t <= 700; ++t) {
    mem.tick(t);
    mem.completions(0).clear();
    mem.l2_events(0).clear();
  }
  mem.reset_stats();
  EXPECT_EQ(mem.stats().loads, 0u);
  EXPECT_EQ(mem.stats().l2_load_hit_time.count(), 0u);
  EXPECT_EQ(mem.l2().read_hits() + mem.l2().read_misses(), 0u);
}

TEST(Hierarchy, PerCoreIsolationOfL1) {
  MemoryHierarchy mem(cfg_with_cores(2));
  // Core 0 warms a line; core 1 still misses its own L1 for the same line.
  const auto a = mem.request_load(0, 0, 0xD000, 0);
  (void)run_until_complete(mem, 0, a, 0, 700);
  const auto b = mem.request_load(1, 0, 0xD000, 1000);
  const auto c = run_until_complete(mem, 1, b, 1000, 700);
  EXPECT_TRUE(c.l2_accessed);  // core 1's L1 was cold
  EXPECT_TRUE(c.l2_hit);       // but the shared L2 has it
}

// ------------------------------------------------- per-core event horizons

TEST(Hierarchy, PerCoreHorizonIsNeverWhenIdle) {
  MemoryHierarchy mem(cfg_with_cores(2));
  EXPECT_EQ(mem.next_event_cycle_for(0, 100), kNeverCycle);
  EXPECT_EQ(mem.next_event_cycle_for(1, 100), kNeverCycle);
}

TEST(Hierarchy, PerCoreHorizonTracksOwnTransactionsOnly) {
  MemoryHierarchy mem(cfg_with_cores(2));
  // Warm core 0's TLB so the probed access has no page-walk component.
  const auto warm = mem.request_load(0, 0, 0x2000, 0);
  (void)run_until_complete(mem, 0, warm, 0, 700);
  mem.l2_events(0).clear();
  mem.l2_miss_events(0).clear();

  const Cycle now = 1000;
  (void)mem.request_load(0, 0, 0x2040, now);  // same page, different line
  // Core 0 has an L1-pipeline access in flight; core 1 has nothing.
  EXPECT_EQ(mem.next_event_cycle_for(0, now), now + 3);  // L1 latency
  EXPECT_EQ(mem.next_event_cycle_for(1, now), kNeverCycle);
}

TEST(Hierarchy, PerCoreHorizonIsASoundLowerBound) {
  // Drive a full L2-miss transaction (L1 pipe -> bus -> bank -> memory)
  // and record the horizon promised at every cycle before delivery: each
  // must be a lower bound on (at or before) the actual delivery cycle,
  // and none may claim the core is idle.
  MemoryHierarchy mem(cfg_with_cores(2));
  const Cycle start = 50;
  const auto token = mem.request_load(0, 0, 0x9000, start);
  std::vector<Cycle> promised;
  Cycle done = 0;
  for (Cycle t = start + 1; t <= start + 700 && done == 0; ++t) {
    promised.push_back(mem.next_event_cycle_for(0, t - 1));
    mem.tick(t);
    for (const MemCompletion& c : mem.completions(0))
      if (c.token == token) done = t;
    mem.completions(0).clear();
    mem.l2_events(0).clear();
    mem.l2_miss_events(0).clear();
  }
  ASSERT_NE(done, 0u);
  for (const Cycle h : promised) {
    EXPECT_NE(h, kNeverCycle) << "horizon lost the in-flight transaction";
    EXPECT_LE(h, done) << "horizon promised later than the delivery";
  }
  EXPECT_EQ(mem.next_event_cycle_for(0, done), kNeverCycle);
}

TEST(Hierarchy, HasEventsFlagsUndrainedBuffers) {
  MemoryHierarchy mem(cfg_with_cores(1));
  EXPECT_FALSE(mem.has_events(0));
  const auto token = mem.request_load(0, 0, 0x2000, 0);
  (void)token;
  for (Cycle t = 1; t <= 700 && !mem.has_events(0); ++t) mem.tick(t);
  EXPECT_TRUE(mem.has_events(0));  // completion waiting to be drained
  mem.completions(0).clear();
  mem.l2_events(0).clear();
  mem.l2_miss_events(0).clear();
  EXPECT_FALSE(mem.has_events(0));
}

}  // namespace
}  // namespace mflush
