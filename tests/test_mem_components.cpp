#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/archive.h"
#include "mem/bus.h"
#include "mem/dram.h"
#include "mem/l2.h"
#include "mem/memory.h"
#include "mem/mshr.h"

namespace mflush {
namespace {

// ---------------------------------------------------------------------- MSHR

TEST(Mshr, AllocateFindRelease) {
  Mshr m(4);
  const auto slot = m.allocate(0x1000);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(m.find(0x1000), slot);
  EXPECT_EQ(m.line_of_slot(*slot), 0x1000u);
  m.attach(*slot, MshrWaiter{.token = 7, .tid = 0, .issue_cycle = 10,
                             .kind = MemKind::Load});
  const auto waiters = m.release(*slot);
  ASSERT_EQ(waiters.size(), 1u);
  EXPECT_EQ(waiters[0].token, 7u);
  EXPECT_FALSE(m.find(0x1000).has_value());
}

TEST(Mshr, FullAllocationFails) {
  Mshr m(2);
  ASSERT_TRUE(m.allocate(0x40).has_value());
  ASSERT_TRUE(m.allocate(0x80).has_value());
  EXPECT_TRUE(m.full());
  EXPECT_FALSE(m.allocate(0xC0).has_value());
  EXPECT_EQ(m.alloc_failures(), 1u);
}

TEST(Mshr, SlotReuseAfterRelease) {
  Mshr m(1);
  const auto s1 = m.allocate(0x40);
  (void)m.release(*s1);
  const auto s2 = m.allocate(0x80);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(m.live(), 1u);
}

TEST(Mshr, CoalescingMultipleWaiters) {
  Mshr m(4);
  const auto slot = *m.allocate(0x1000);
  for (std::uint64_t t = 1; t <= 5; ++t)
    m.attach(slot, MshrWaiter{.token = t, .tid = 0, .issue_cycle = t,
                              .kind = MemKind::Load});
  EXPECT_EQ(m.waiters(slot).size(), 5u);
  EXPECT_EQ(m.release(slot).size(), 5u);
}

TEST(Mshr, MissKnownFlag) {
  Mshr m(2);
  const auto slot = *m.allocate(0x40);
  EXPECT_FALSE(m.miss_known(slot));
  m.set_miss_known(slot);
  EXPECT_TRUE(m.miss_known(slot));
  (void)m.release(slot);
  const auto again = *m.allocate(0x40);
  EXPECT_FALSE(m.miss_known(again));  // reset on reallocation
}

// ----------------------------------------------------------------------- Bus

TEST(Bus, DeliversAfterLatency) {
  SharedBus bus(2, 4);
  std::vector<std::uint64_t> done;
  bus.push(0, 42, 0);
  for (Cycle t = 1; t <= 4; ++t) {
    done.clear();
    bus.tick(t, done);
    if (t < 5) { EXPECT_TRUE(done.empty()); }
  }
  done.clear();
  bus.tick(5, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 42u);
}

TEST(Bus, OccupancySerializesTransfers) {
  SharedBus bus(1, 4);
  std::vector<std::uint64_t> done;
  bus.push(0, 1, 0);
  bus.push(0, 2, 0);
  std::vector<Cycle> arrivals;
  for (Cycle t = 1; t <= 20 && arrivals.size() < 2; ++t) {
    done.clear();
    bus.tick(t, done);
    for (auto p : done) {
      (void)p;
      arrivals.push_back(t);
    }
  }
  ASSERT_EQ(arrivals.size(), 2u);
  // Second transfer starts only after the bus frees: 4 cycles apart.
  EXPECT_GE(arrivals[1] - arrivals[0], 4u);
}

TEST(Bus, RoundRobinFairness) {
  SharedBus bus(2, 1);
  std::vector<std::uint64_t> done;
  // Saturate both cores; grants must alternate.
  for (int i = 0; i < 4; ++i) {
    bus.push(0, 100 + i, 0);
    bus.push(1, 200 + i, 0);
  }
  std::vector<std::uint64_t> order;
  for (Cycle t = 1; t <= 20 && order.size() < 8; ++t) {
    done.clear();
    bus.tick(t, done);
    for (auto p : done) order.push_back(p);
  }
  ASSERT_EQ(order.size(), 8u);
  int alternations = 0;
  for (std::size_t i = 1; i < order.size(); ++i)
    if ((order[i] / 100) != (order[i - 1] / 100)) ++alternations;
  EXPECT_GE(alternations, 6);
}

TEST(Bus, QueueWaitAccounted) {
  SharedBus bus(1, 4);
  std::vector<std::uint64_t> done;
  bus.push(0, 1, 0);
  bus.push(0, 2, 0);  // waits ~4 cycles for the bus
  for (Cycle t = 1; t <= 12; ++t) {
    done.clear();
    bus.tick(t, done);
  }
  EXPECT_GT(bus.queue_wait_cycles(), 0u);
  EXPECT_EQ(bus.transfers(), 2u);
}

// -------------------------------------------------------------------- Memory

TEST(Memory, FixedLatency) {
  FixedLatencyMemory mem(250);
  std::vector<std::uint64_t> done;
  mem.start_read(0x40, 9, 100);
  mem.tick(349, done);
  EXPECT_TRUE(done.empty());
  mem.tick(350, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 9u);
}

TEST(Memory, FullyPipelined) {
  FixedLatencyMemory mem(250);
  std::vector<std::uint64_t> done;
  for (std::uint64_t i = 0; i < 10; ++i) mem.start_read(i * 64, i, 100 + i);
  mem.tick(359, done);
  EXPECT_EQ(done.size(), 10u);  // all ten resolve within consecutive cycles
  // FIFO order preserved for determinism.
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(done[i], i);
}

TEST(Memory, CountsReadsAndWrites) {
  FixedLatencyMemory mem(10);
  mem.start_read(0x40, 1, 0);
  mem.start_write(0x80, 0);
  mem.start_write(0xC0, 0);
  EXPECT_EQ(mem.stats().reads, 1u);
  EXPECT_EQ(mem.stats().writes, 2u);
}

// Satellite: reset_stats is the one audited warm/measure boundary — it
// zeroes counters and ONLY counters; in-flight accesses survive untouched
// and complete on schedule. (The pre-seam MainMemory::reset_stats had no
// such guarantee audited.)
TEST(Memory, ResetStatsPreservesOutstanding) {
  FixedLatencyMemory mem(100);
  std::vector<std::uint64_t> done;
  mem.start_read(0x40, 7, 50);
  mem.start_write(0x80, 50);
  mem.reset_stats();
  EXPECT_EQ(mem.stats().reads, 0u);
  EXPECT_EQ(mem.stats().writes, 0u);
  EXPECT_EQ(mem.outstanding(), 1u);
  EXPECT_EQ(mem.next_event_cycle(), 150u);
  mem.tick(150, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 7u);
}

// --------------------------------------------------------------- Banked DRAM

// Default geometry (channels=2, banks=8, row_bytes=2048, line_bytes=64):
// chan_bits=1, bank_bits=3, row_bits=5. Compose a line address from its
// decomposition so each test states its targets explicitly.
MemConfig dram_cfg() {
  MemConfig cfg;
  cfg.memory_model = MemModelKind::BankedDram;
  return cfg;
}

Addr dram_line(std::uint64_t ch, std::uint64_t bank, std::uint64_t off,
               std::uint64_t row) {
  const std::uint64_t block = ch | (bank << 1) | (off << 4) | (row << 9);
  return block << 6;
}

TEST(Dram, AddressMapping) {
  BankedDramMemory mem(dram_cfg());
  const Addr a = dram_line(1, 5, 17, 3);
  EXPECT_EQ(mem.channel_of(a), 1u);
  EXPECT_EQ(mem.bank_of(a), 5u);
  EXPECT_EQ(mem.row_of(a), 3u);
  // Consecutive lines interleave across channels first.
  EXPECT_EQ(mem.channel_of(0 * 64), 0u);
  EXPECT_EQ(mem.channel_of(1 * 64), 1u);
  EXPECT_EQ(mem.bank_of(2 * 64), 1u);
}

TEST(Dram, RowMissThenRowHit) {
  BankedDramMemory mem(dram_cfg());
  std::vector<std::uint64_t> done;
  // Idle bank: activate + CAS = t_row_miss = 250.
  mem.start_read(dram_line(0, 0, 0, 0), 1, 100);
  EXPECT_EQ(mem.next_event_cycle(), 350u);
  mem.tick(349, done);
  EXPECT_TRUE(done.empty());
  mem.tick(350, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 1u);
  // Same row, different line, bank now free: CAS only = t_row_hit = 80.
  done.clear();
  mem.start_read(dram_line(0, 0, 3, 0), 2, 400);
  EXPECT_EQ(mem.next_event_cycle(), 480u);
  mem.tick(480, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(mem.stats().row_misses, 1u);
  EXPECT_EQ(mem.stats().row_hits, 1u);
}

TEST(Dram, RowConflictPrechargesFirst) {
  BankedDramMemory mem(dram_cfg());
  std::vector<std::uint64_t> done;
  mem.start_read(dram_line(0, 0, 0, 0), 1, 100);  // opens row 0
  mem.tick(350, done);
  // Different row in the same bank: precharge + activate + CAS = 400.
  mem.start_read(dram_line(0, 0, 0, 1), 2, 500);
  EXPECT_EQ(mem.next_event_cycle(), 900u);
  EXPECT_EQ(mem.stats().row_conflicts, 1u);
  // The row buffer now holds row 1.
  EXPECT_TRUE(mem.bank_state(0, 0).row_valid);
  EXPECT_EQ(mem.bank_state(0, 0).open_row, 1u);
}

TEST(Dram, BankConflictQueuesInOrder) {
  BankedDramMemory mem(dram_cfg());
  std::vector<std::uint64_t> done;
  // Two same-cycle reads to one bank: the second waits for the first's
  // service window, then row-hits: done at 100+250=350 and 350+80=430.
  mem.start_read(dram_line(0, 0, 0, 0), 1, 100);
  mem.start_read(dram_line(0, 0, 1, 0), 2, 100);
  mem.tick(350, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 1u);
  done.clear();
  mem.tick(429, done);
  EXPECT_TRUE(done.empty());
  mem.tick(430, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2u);
}

TEST(Dram, ChannelGapSerializesAcrossBanks) {
  BankedDramMemory mem(dram_cfg());
  std::vector<std::uint64_t> done;
  // Same channel, different banks, same cycle: the channel bus delays the
  // second start by channel_gap=4, so misses land at 350 and 354.
  mem.start_read(dram_line(0, 0, 0, 0), 1, 100);
  mem.start_read(dram_line(0, 1, 0, 0), 2, 100);
  mem.tick(350, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 1u);
  done.clear();
  mem.tick(354, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2u);
}

TEST(Dram, DifferentChannelsServeInParallel) {
  BankedDramMemory mem(dram_cfg());
  std::vector<std::uint64_t> done;
  mem.start_read(dram_line(0, 0, 0, 0), 1, 100);
  mem.start_read(dram_line(1, 0, 0, 0), 2, 100);
  mem.tick(350, done);
  EXPECT_EQ(done.size(), 2u);  // no cross-channel interference
}

TEST(Dram, FarLatencyClass) {
  MemConfig cfg = dram_cfg();
  cfg.dram.far_base = dram_line(0, 0, 0, 4);
  cfg.dram.far_bytes = 1 << 20;
  BankedDramMemory mem(cfg);
  std::vector<std::uint64_t> done;
  mem.start_read(cfg.dram.far_base, 1, 100);  // miss + far = 250 + 800
  EXPECT_EQ(mem.next_event_cycle(), 1150u);
  EXPECT_EQ(mem.stats().far_accesses, 1u);
  // Near read on another bank of the same channel: plain miss, but the far
  // read holds the channel bus until 104, so it completes at 104 + 250.
  mem.start_read(dram_line(0, 1, 0, 0), 2, 100);
  // Jumps only ever land on next_event_cycle (the wheel's clock-jump
  // contract, common/wheel.h) — exactly how the event kernel drives it.
  mem.tick(354, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2u);
  done.clear();
  mem.tick(1149, done);
  EXPECT_TRUE(done.empty());
  mem.tick(1150, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 1u);
  EXPECT_EQ(mem.stats().far_accesses, 1u);
}

TEST(Dram, CompletionsReorderAcrossBanks) {
  BankedDramMemory mem(dram_cfg());
  std::vector<std::uint64_t> done;
  mem.start_read(dram_line(0, 0, 0, 0), 1, 100);  // opens bank 0 row 0
  mem.tick(350, done);
  done.clear();
  // Slow conflict on bank 0 (due 900), then a fast miss on bank 1 issued
  // later via another channel (due 854): the later issue completes first.
  mem.start_read(dram_line(0, 0, 0, 1), 10, 500);
  mem.start_read(dram_line(1, 1, 0, 0), 11, 600);
  EXPECT_EQ(mem.next_event_cycle(), 850u);
  // Horizon queries must find the earliest MATCHING completion, not the
  // earliest overall — the decoupled kernel's soundness rests on this.
  const auto is10 = [](std::uint64_t p) { return p == 10; };
  const auto is11 = [](std::uint64_t p) { return p == 11; };
  EXPECT_EQ(mem.next_done_if(is10), 900u);
  EXPECT_EQ(mem.next_done_if(is11), 850u);
  mem.tick(850, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 11u);
  mem.tick(900, done);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], 10u);
}

TEST(Dram, WritesReserveButNeverComplete) {
  BankedDramMemory mem(dram_cfg());
  std::vector<std::uint64_t> done;
  mem.start_write(dram_line(0, 0, 0, 0), 100);  // miss service: busy to 350
  EXPECT_EQ(mem.outstanding(), 0u);
  EXPECT_EQ(mem.next_event_cycle(), kNeverCycle);
  // A read behind the write queues on the bank and row-hits: 350+80.
  mem.start_read(dram_line(0, 0, 1, 0), 1, 100);
  EXPECT_EQ(mem.next_event_cycle(), 430u);
  mem.tick(430, done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(mem.stats().writes, 1u);
  EXPECT_EQ(mem.stats().reads, 1u);
}

TEST(Dram, ResetStatsPreservesOutstanding) {
  BankedDramMemory mem(dram_cfg());
  std::vector<std::uint64_t> done;
  mem.start_read(dram_line(0, 0, 0, 0), 1, 100);
  mem.start_read(dram_line(1, 3, 0, 0), 2, 100);
  mem.reset_stats();
  EXPECT_EQ(mem.stats().reads, 0u);
  EXPECT_EQ(mem.stats().row_misses, 0u);
  EXPECT_EQ(mem.outstanding(), 2u);
  EXPECT_EQ(mem.next_event_cycle(), 350u);
  mem.tick(350, done);
  EXPECT_EQ(done.size(), 2u);  // both still complete on schedule
}

TEST(Dram, SaveLoadRoundTripMidFlight) {
  const MemConfig cfg = dram_cfg();
  BankedDramMemory a(cfg);
  std::vector<std::uint64_t> done;
  a.start_read(dram_line(0, 0, 0, 0), 1, 100);
  a.start_read(dram_line(0, 0, 0, 1), 2, 120);   // queued conflict
  a.start_read(dram_line(1, 2, 0, 0), 3, 130);
  a.start_write(dram_line(0, 4, 0, 0), 140);
  a.tick(350, done);  // payload 1 retires; 2 and 3 still in flight

  ArchiveWriter w;
  a.save_state(w);
  ArchiveReader r(w.bytes());
  BankedDramMemory b(cfg);
  b.load_state(r);

  EXPECT_EQ(b.outstanding(), a.outstanding());
  EXPECT_EQ(b.next_event_cycle(), a.next_event_cycle());
  EXPECT_EQ(b.stats().row_conflicts, a.stats().row_conflicts);
  EXPECT_EQ(b.bank_state(0, 0).busy_until, a.bank_state(0, 0).busy_until);
  EXPECT_EQ(b.bank_state(0, 0).open_row, a.bank_state(0, 0).open_row);
  for (Cycle t = 351; t <= 2000; ++t) {
    std::vector<std::uint64_t> da, db;
    a.tick(t, da);
    b.tick(t, db);
    ASSERT_EQ(da, db) << "divergence at cycle " << t;
  }
  EXPECT_EQ(a.outstanding(), 0u);
}

// Fuzz the wheel-scheduled delivery against a plain linear-scan reference
// that reimplements the reservation algebra independently: same classify /
// reserve math, but completions kept in a flat vector scanned every cycle.
TEST(Dram, FuzzMatchesLinearScanReference) {
  MemConfig cfg = dram_cfg();
  cfg.dram.far_base = dram_line(0, 0, 0, 8);
  cfg.dram.far_bytes = 1 << 19;
  BankedDramMemory mem(cfg);

  struct RefBank {
    Cycle busy = 0;
    std::uint64_t row = 0;
    bool valid = false;
  };
  const std::uint32_t nch = cfg.dram.channels;
  const std::uint32_t nbk = cfg.dram.banks_per_channel;
  std::vector<RefBank> rbanks(nch * nbk);
  std::vector<Cycle> rchan(nch, 0);
  std::vector<std::pair<Cycle, std::uint64_t>> rpending;

  std::mt19937_64 rng(0xD12A4u);
  std::uint64_t payload = 0;
  Cycle next_issue = 1 + rng() % 97;
  // The burst rate deliberately oversubscribes the banks, so the backlog
  // (and the wheel's far queue) grows deep before the post-horizon drain.
  const Cycle horizon = 20'000;
  // Tick densely (the wheel's clock-jump contract: a caller may only jump
  // to next_event_cycle; the fuzz just never jumps), issuing random bursts
  // along the way, and compare each cycle's delivery set.
  for (Cycle t = 1; t <= horizon || mem.outstanding() != 0; ++t) {
    ASSERT_LT(t, 20 * horizon) << "in-flight reads never drained";
    if (t == next_issue && t <= horizon) {
      const int n = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < n; ++i) {
        const Addr line =
            dram_line(rng() % nch, rng() % nbk, rng() % 32, rng() % 16);
        mem.start_read(line, ++payload, t);
        // Reference reservation (independent state, same algebra).
        RefBank& b = rbanks[mem.channel_of(line) * nbk + mem.bank_of(line)];
        const Cycle start = std::max({t, b.busy, rchan[mem.channel_of(line)]});
        std::uint64_t lat = !b.valid ? cfg.dram.t_row_miss
                            : b.row == mem.row_of(line)
                                ? cfg.dram.t_row_hit
                                : cfg.dram.t_row_conflict;
        if (line >= cfg.dram.far_base &&
            line - cfg.dram.far_base < cfg.dram.far_bytes)
          lat += cfg.dram.far_extra;
        b.valid = true;
        b.row = mem.row_of(line);
        b.busy = start + lat;
        rchan[mem.channel_of(line)] = start + cfg.dram.channel_gap;
        rpending.emplace_back(start + lat, payload);
      }
      next_issue = t + 1 + rng() % 97;
    }
    std::vector<std::uint64_t> got;
    mem.tick(t, got);
    std::vector<std::uint64_t> want;
    std::erase_if(rpending, [&](const auto& p) {
      if (p.first > t) return false;
      want.push_back(p.second);
      return true;
    });
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "divergence at cycle " << t;
  }
  EXPECT_GT(mem.stats().row_hits, 0u);
  EXPECT_GT(mem.stats().row_conflicts, 0u);
  EXPECT_GT(mem.stats().far_accesses, 0u);
}

// ------------------------------------------------------------------ L2 banks

L2Cache paper_l2() { return L2Cache(4 * 1024 * 1024, 12, 64, 4, 15); }

TEST(L2, BankInterleavingByLine) {
  auto l2 = paper_l2();
  EXPECT_EQ(l2.bank_of(0 * 64), 0u);
  EXPECT_EQ(l2.bank_of(1 * 64), 1u);
  EXPECT_EQ(l2.bank_of(2 * 64), 2u);
  EXPECT_EQ(l2.bank_of(3 * 64), 3u);
  EXPECT_EQ(l2.bank_of(4 * 64), 0u);
}

TEST(L2, MissThenFillThenHit) {
  auto l2 = paper_l2();
  std::vector<L2ServiceResult> out;
  l2.enqueue(0x1000, 1, false, 0);
  for (Cycle t = 1; t <= 16; ++t) l2.tick(t, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].hit);
  (void)l2.fill(0x1000, false);
  out.clear();
  l2.enqueue(0x1000, 2, false, 20);
  for (Cycle t = 20; t <= 40; ++t) l2.tick(t, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].hit);
}

TEST(L2, SingleLatencyIs15Cycles) {
  auto l2 = paper_l2();
  std::vector<L2ServiceResult> out;
  l2.enqueue(0x40, 1, false, 0);
  Cycle done = 0;
  for (Cycle t = 1; t <= 30 && done == 0; ++t) {
    l2.tick(t, out);
    if (!out.empty()) done = t;
  }
  // Service starts at tick 1, completes 15 cycles later.
  EXPECT_EQ(done, 16u);
}

// The paper's worked example (§3.2): the 4th consecutive hit to the same
// bank experiences ~45 extra cycles of queueing.
TEST(L2, FourthConsecutiveSameBankAccessWaits45Cycles) {
  auto l2 = paper_l2();
  for (int i = 0; i < 4; ++i) (void)l2.fill(0x1000 + i * 4 * 64, false);
  std::vector<L2ServiceResult> out;
  // Four back-to-back requests to bank 0 (line stride of 4 lines).
  for (std::uint64_t i = 0; i < 4; ++i)
    l2.enqueue(0x1000 + i * 4 * 64, i, false, 0);
  std::vector<Cycle> done(4, 0);
  for (Cycle t = 1; t <= 100; ++t) {
    out.clear();
    l2.tick(t, out);
    for (const auto& r : out) done[r.payload] = t;
  }
  EXPECT_EQ(done[0], 16u);
  EXPECT_EQ(done[3] - done[0], 45u);  // three additional 15-cycle services
}

TEST(L2, BanksServeInParallel) {
  auto l2 = paper_l2();
  for (std::uint64_t i = 0; i < 4; ++i) (void)l2.fill(i * 64, false);
  std::vector<L2ServiceResult> out;
  for (std::uint64_t i = 0; i < 4; ++i) l2.enqueue(i * 64, i, false, 0);
  std::vector<Cycle> done(4, 0);
  for (Cycle t = 1; t <= 40; ++t) {
    out.clear();
    l2.tick(t, out);
    for (const auto& r : out) done[r.payload] = t;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(done[i], 16u) << i;
}

TEST(L2, WritebackInstallsDirtyWithoutResponse) {
  auto l2 = paper_l2();
  std::vector<L2ServiceResult> out;
  l2.enqueue(0x2000, 99, /*is_writeback=*/true, 0);
  for (Cycle t = 1; t <= 20; ++t) l2.tick(t, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(l2.writebacks(), 1u);
  // The line is now present (a subsequent read hits).
  l2.enqueue(0x2000, 1, false, 30);
  for (Cycle t = 30; t <= 50; ++t) l2.tick(t, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].hit);
}

TEST(L2, RejectsIndivisibleBanking) {
  EXPECT_THROW(L2Cache(1000, 2, 64, 3, 15), std::invalid_argument);
}

}  // namespace
}  // namespace mflush
